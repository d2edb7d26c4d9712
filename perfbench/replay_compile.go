package main

import (
	"fmt"

	"renaissance/internal/minilang"
	"renaissance/internal/rvm"
)

// compileReplay replays dotty's per-unit pipeline (lex, parse, check,
// codegen, run) over a seeded draw of minilang corpus units, from one
// goroutine. Set-up runs every unit on the baseline tier; each
// iteration's result and counters must equal that reference.
type compileReplay struct {
	units   []string
	want    []rvm.Value
	counts  []rvm.Counters
	instrs  int // instructions generated for all units, per iteration
	icHit   float64
	icValid bool
}

func newCompileReplay(seed int64, scale float64) (replayer, error) {
	rng := newRand(seed, "compile")
	pool := minilang.Corpus(scaled(96, scale, 8))
	r := &compileReplay{}
	for _, i := range rng.Perm(len(pool))[:scaled(24, scale, 4)] {
		src := pool[i]
		p, err := minilang.Compile(src)
		if err != nil {
			return nil, fmt.Errorf("compile: unit %d: %w", i, err)
		}
		vm := rvm.NewInterp(p)
		vm.Tier = rvm.TierBaseline
		v, err := vm.Run()
		if err != nil {
			return nil, fmt.Errorf("compile: unit %d tier-0 run: %w", i, err)
		}
		r.units = append(r.units, src)
		r.want = append(r.want, v)
		r.counts = append(r.counts, vm.Counters)
		for _, m := range p.Methods() {
			r.instrs += len(m.Code)
		}
	}
	return r, nil
}

func (r *compileReplay) iterate(root span) error {
	for i, src := range r.units {
		var err error
		root.do(layerMinilang, "lex", func() { _, err = minilang.Lex(src) })
		if err != nil {
			return fmt.Errorf("compile: unit %d lex: %w", i, err)
		}
		var ast *minilang.ProgramAST
		root.do(layerMinilang, "parse", func() { ast, err = minilang.Parse(src) })
		if err != nil {
			return fmt.Errorf("compile: unit %d parse: %w", i, err)
		}
		root.do(layerMinilang, "check", func() { err = minilang.Check(ast) })
		if err != nil {
			return fmt.Errorf("compile: unit %d check: %w", i, err)
		}
		var p *rvm.Program
		root.do(layerMinilang, "codegen", func() { p, err = minilang.Generate(ast) })
		if err != nil {
			return fmt.Errorf("compile: unit %d codegen: %w", i, err)
		}
		vm := rvm.NewInterp(p)
		var v rvm.Value
		root.do(layerRvm, "run", func() { v, err = vm.Run() })
		if err != nil {
			return fmt.Errorf("compile: unit %d run: %w", i, err)
		}
		if !v.Equal(r.want[i]) || vm.Counters != r.counts[i] {
			return fmt.Errorf("compile: unit %d result %v differs from its tier-0 result %v", i, v, r.want[i])
		}
	}
	return nil
}

// profileICs runs one untimed iteration with the rvm profile collector on
// and records the inline-cache hit rate.
func (r *compileReplay) profileICs() error {
	rvm.ResetProfile()
	rvm.EnableProfiling()
	defer rvm.DisableProfiling()
	err := r.iterate(span{})
	r.icHit, r.icValid = rvm.ICHitRate(), err == nil
	return err
}

func (r *compileReplay) layerMetrics(sum *traceSummary, out map[string]float64) {
	for _, n := range []string{"lex", "parse", "check", "codegen"} {
		out["minilang."+n+"_us"] = sum.meanNs(layerMinilang, n) / 1e3
	}
	out["rvm.run_us"] = sum.meanNs(layerRvm, "run") / 1e3
	out["rvm.code_instrs"] = float64(r.instrs)
	if r.icValid {
		out["rvm.ic_hit_frac"] = r.icHit
	}
}
