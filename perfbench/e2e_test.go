package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func (d *metricDef) UnmarshalJSON(b []byte) error {
	var m struct{ Name, Unit, Better string }
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	*d = metricDef{m.Name, m.Unit, m.Better}
	return nil
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return d
}

func TestDefinitionsMatchBenchmarkJSON(t *testing.T) {
	d := loadDeclared(t)
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if strings.Join(names, ",") != strings.Join(ours, ",") {
		t.Errorf("workloads %v, BENCHMARK.json declares %v", ours, names)
	}
	if got, want := layerMetricDefs(), d.PerLayer; !equalDefs(got, want) {
		t.Errorf("per-layer metrics differ from BENCHMARK.json:\n got %v\nwant %v", got, want)
	}
	if !equalDefs(e2eMetrics, d.EndToEnd) {
		t.Errorf("end-to-end metrics differ from BENCHMARK.json:\n got %v\nwant %v", e2eMetrics, d.EndToEnd)
	}
}

func equalDefs(a, b []metricDef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestEveryWorkloadPrintsDeclaredMetrics runs every workload at a tiny size
// and two seeds, untraced and traced, and checks that the result line
// carries exactly the metric names and units BENCHMARK.json declares.
func TestEveryWorkloadPrintsDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	d := loadDeclared(t)
	units := func(defs []metricDef) map[string]string {
		m := map[string]string{}
		for _, def := range defs {
			m[def.name] = def.unit
		}
		return m
	}
	wantE2E, wantLayer := units(d.EndToEnd), units(d.PerLayer)
	for _, w := range d.Workloads {
		for _, seed := range []int64{1, 2} {
			for _, trace := range []bool{false, true} {
				o := options{workload: w.Name, seed: seed, seconds: 0.3, trace: trace, scale: 0.05, traceDir: t.TempDir()}
				var out bytes.Buffer
				res, err := run(o, &out)
				if err != nil {
					t.Fatalf("%s seed %d trace %v: %v", w.Name, seed, trace, err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var printed result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &printed); err != nil {
					t.Fatalf("%s: last line is not the result: %v", w.Name, err)
				}
				if !printed.Correct || printed.Failed != 0 || printed.Attempted < 1 || !res.Correct {
					t.Errorf("%s seed %d trace %v: correct=%v failed=%d attempted=%d\n%s",
						w.Name, seed, trace, printed.Correct, printed.Failed, printed.Attempted, out.String())
				}
				want := wantE2E
				if trace {
					want = wantLayer
				}
				got := map[string]string{}
				for name, v := range printed.Metrics {
					got[name] = v.Unit
					if !trace && !(v.Value > 0) {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, name, v.Value)
					}
				}
				if len(got) != len(want) {
					t.Errorf("%s trace %v: %d metrics printed, %d declared", w.Name, trace, len(got), len(want))
				}
				for name, unit := range want {
					if got[name] != unit {
						t.Errorf("%s trace %v: metric %s has unit %q, declared %q", w.Name, trace, name, got[name], unit)
					}
				}
				if trace {
					checkSelfSum(t, w.Name, lines[len(lines)-2])
				}
			}
		}
	}
}

// checkSelfSum checks that the traced run's layer self times sum to its
// root spans.
func checkSelfSum(t *testing.T, workload, envLine string) {
	t.Helper()
	var env struct {
		Env map[string]any `json:"env"`
	}
	if err := json.Unmarshal([]byte(envLine), &env); err != nil {
		t.Fatalf("%s: environment line: %v", workload, err)
	}
	root, ok1 := env.Env["trace_root_ms_per_iter"].(float64)
	self, ok2 := env.Env["trace_self_sum_ms_per_iter"].(float64)
	if !ok1 || !ok2 || root <= 0 {
		t.Fatalf("%s: environment lacks trace sums: %v", workload, env.Env)
	}
	if math.Abs(root-self) > 1e-9*root {
		t.Errorf("%s: layer self times sum to %v ms, root spans to %v ms", workload, self, root)
	}
}
