package main

import (
	"strings"
	"testing"
)

func TestRunRejectsBadSize(t *testing.T) {
	for _, size := range []string{"0", "-1", "-0.5", "NaN", "+Inf", "-Inf"} {
		err := cmdRun([]string{"-size", size})
		if err == nil || !strings.Contains(err.Error(), "bad -size") {
			t.Errorf("-size %s: err = %v, want a bad -size error", size, err)
		}
	}
	// A valid size passes the check and fails later, on the unknown bench.
	err := cmdRun([]string{"-size", "0.25", "-bench", "no-such-bench"})
	if err == nil || !strings.Contains(err.Error(), "no benchmarks match") {
		t.Errorf("-size 0.25: err = %v, want the no-match error", err)
	}
}
