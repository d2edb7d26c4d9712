// Command perfbench is the repository's benchmark. It runs one workload —
// a fixed set of registered Renaissance specs — through core.Runner and
// prints the end-to-end metrics; with --trace 1 it also replays the
// workload's calls into each layer under spans and prints per-layer
// metrics. The last line of standard output is a JSON object with the keys
// correct, attempted, failed and metrics.
//
// Usage:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	_ "renaissance/internal/bench/renaissance"
	"renaissance/internal/core"
	"renaissance/internal/hdr"
	"renaissance/internal/metrics"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64 // multiplies every workload size: 1, or tiny in tests
	commit   string
	traceDir string // where a traced run writes its spans
}

// Shares of --seconds given to the spec runs; the rest goes to the replay.
const (
	specShare      = 0.85
	specShareTrace = 0.4
	// traceBlocks is how many untraced/traced block pairs the traced run
	// alternates, so drift affects both sides of trace.overhead_frac alike.
	traceBlocks = 3
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 15, "measurement time in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 for the traced per-layer run")
	flag.StringVar(&o.commit, "commit", "unknown", "commit or source digest of the code under test")
	flag.Parse()
	o.scale = 1
	o.traceDir = filepath.Join(".bench_build", "traces")
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = traceFlag == 1
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func findWorkload(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

func run(o options, out io.Writer) (*result, error) {
	def, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	if o.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	cfg := core.Config{SizeFactor: def.size * o.scale, Seed: o.seed, Threads: nproc}
	budget := time.Duration(o.seconds * float64(time.Second))

	var specs []*core.Spec
	for _, name := range def.specs {
		s, ok := core.Global.Lookup(core.SuiteRenaissance, name)
		if !ok {
			return nil, fmt.Errorf("spec %s is not registered", name)
		}
		specs = append(specs, s)
	}
	share := specShare
	if o.trace {
		share = specShareTrace
	}
	rd := newRTReader()
	var stats []*specStats
	for _, s := range specs {
		per := time.Duration(share * float64(budget) / float64(len(specs)))
		stats = append(stats, runSpec(s, cfg, rd, per))
	}

	res := &result{Metrics: map[string]metricValue{}}
	var errs []string
	for _, st := range stats {
		res.Attempted += st.attempted
		res.Failed += st.failed
		errs = append(errs, st.errs...)
	}

	replayBudget := time.Duration((1 - share) * float64(budget))
	rp, err := def.replay(o.seed, o.scale)
	var plain, traced replayRun
	var tr *tracer
	if err != nil {
		res.Attempted++
		res.Failed++
		errs = append(errs, "replay set-up: "+err.Error())
	} else {
		if o.trace {
			tr = newTracer()
			block := replayBudget / (2 * traceBlocks)
			for b := 0; b < traceBlocks && plain.failed+traced.failed == 0; b++ {
				plain.run(rp, nil, block, 1)
				traced.run(rp, tr, block, 1)
			}
		} else {
			plain.run(rp, nil, replayBudget, 2)
		}
		for _, rr := range []*replayRun{&plain, &traced} {
			res.Attempted += rr.attempted
			res.Failed += rr.failed
			errs = append(errs, rr.errs...)
		}
	}
	res.Correct = res.Failed == 0

	env := environment(o, def, nproc, stats)
	if o.trace {
		layerOut := map[string]float64{}
		traceInfo := traceMetrics(o, def, stats, rp, tr, &plain, &traced, layerOut)
		for k, v := range traceInfo {
			env[k] = v
		}
		for _, d := range layerMetricDefs() {
			res.Metrics[d.name] = metricValue{layerOut[d.name], d.unit}
		}
	} else {
		vals := endToEnd(stats)
		for _, d := range e2eMetrics {
			res.Metrics[d.name] = metricValue{vals[d.name], d.unit}
		}
	}
	return res, report(out, o, env, stats, res, errs)
}

// endToEnd computes the end-to-end metrics: geometric means over the
// workload's specs of per-spec figures, and the summed set-up time.
func endToEnd(stats []*specStats) map[string]float64 {
	var iter, tail, cpu, allocs, kb, heap []float64
	var setup float64
	for _, st := range stats {
		iter = append(iter, st.iterMs())
		_, t := st.tail()
		tail = append(tail, t)
		cpu = append(cpu, st.cpuMsPerIter())
		allocs = append(allocs, st.allocsPerIter())
		kb = append(kb, st.allocKBPerIter())
		setup += median(st.setupS)
		heap = append(heap, st.heapPeak()/(1<<20))
	}
	return map[string]float64{
		"iter_ms":           geomean(iter),
		"iter_tail_ms":      geomean(tail),
		"cpu_ms_per_iter":   geomean(cpu),
		"allocs_per_iter":   geomean(allocs),
		"alloc_kb_per_iter": geomean(kb),
		"heap_live_peak_mb": geomean(heap),
		"setup_s":           setup,
	}
}

// traceMetrics fills the per-layer metrics and returns the traced run's
// additions to the environment block.
func traceMetrics(o options, def workloadDef, stats []*specStats, rp replayer, tr *tracer,
	plain, traced *replayRun, out map[string]float64) map[string]any {
	var rt rtDelta
	var lat *hdr.Histogram
	prim := map[string]float64{}
	byName := map[string]metrics.Metric{}
	for m := metrics.Metric(0); m < metrics.NumMetrics; m++ {
		byName[m.String()] = m
	}
	var gcCycles, mutexUs []float64
	for _, st := range stats {
		out["spec."+st.name+".iter_ms"] = st.iterMs()
		out["spec."+st.name+".allocs_per_iter"] = st.allocsPerIter()
		for _, p := range primNames {
			prim[p] += st.perIter(float64(st.prim.Get(byName[p]))) / float64(len(stats))
		}
		gcCycles = append(gcCycles, st.perIter(float64(st.rt.gcCycles)))
		mutexUs = append(mutexUs, st.perIter(st.rt.mutexWait*1e6))
		rt.merge(&st.rt)
		if st.lat != nil {
			if lat == nil {
				lat = hdr.New()
			}
			lat.Merge(st.lat)
		}
	}
	for p, v := range prim {
		out["prim."+p] = v
	}
	if rt.totalCPU > 0 {
		out["rt.gc_cpu_frac"] = rt.gcCPU / rt.totalCPU
		out["rt.idle_frac"] = rt.idleCPU / rt.totalCPU
	}
	out["rt.gc_cycles_per_iter"] = mean(gcCycles)
	out["rt.mutex_wait_us_per_iter"] = mean(mutexUs)
	out["rt.sched_wait_p99_us"] = rt.schedQuantile(0.99) * 1e6
	if lat != nil {
		out["netstack.rtt_p50_us"] = float64(lat.Quantile(0.5)) / 1e3
		out["netstack.rtt_p99_us"] = float64(lat.Quantile(0.99)) / 1e3
	}

	info := map[string]any{}
	if tr == nil || rp == nil {
		return info
	}
	if c, ok := rp.(*compileReplay); ok {
		if err := c.profileICs(); err != nil {
			info["ic_profile_error"] = err.Error()
		}
	}
	sum := analyze(tr.spans)
	if sum.roots > 0 {
		for l := layer(0); l < numLayers; l++ {
			out[l.String()+".self_ms_per_iter"] = float64(sum.selfNs[l]) / float64(sum.roots) / 1e6
		}
		info["trace_root_ms_per_iter"] = float64(sum.rootNs) / float64(sum.roots) / 1e6
		info["trace_self_sum_ms_per_iter"] = float64(sum.selfSumNs()) / float64(sum.roots) / 1e6
	}
	rp.layerMetrics(sum, out)
	if m := median(plain.durMs); m > 0 && len(traced.durMs) > 0 {
		out["trace.overhead_frac"] = median(traced.durMs)/m - 1
	}
	info["trace_iterations"] = len(traced.durMs)
	info["untraced_iterations"] = len(plain.durMs)
	info["trace_spans"] = len(tr.spans)
	path := filepath.Join(o.traceDir, "trace-"+def.name+".csv")
	if err := writeSpans(path, tr.spans); err != nil {
		info["trace_file_error"] = err.Error()
	} else {
		info["trace_file"] = path
	}
	return info
}

// environment returns the environment block every output carries.
func environment(o options, def workloadDef, nproc int, stats []*specStats) map[string]any {
	var specs []map[string]any
	for _, st := range stats {
		p, t := st.tail()
		specs = append(specs, map[string]any{
			"name":            st.name,
			"warmup_iters":    st.warmup,
			"measured":        len(st.durMs),
			"setup_samples":   len(st.setupS),
			"iter_ms":         st.iterMs(),
			"round_iter_ms":   st.roundMs,
			"tail_percentile": p,
			"tail_ms":         t,
			"setup_s":         median(st.setupS),
			"cpu_ms_per_iter": st.cpuMsPerIter(),
			"allocs_per_iter": st.allocsPerIter(),
			"heap_peak_mb":    st.heapPeak() / (1 << 20),
		})
	}
	return map[string]any{
		"workload":   def.name,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"size":       def.size * o.scale,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      nproc,
		"go":         runtime.Version(),
		"commit":     o.commit,
		"tail_rule":  "iter_tail_ms uses, per spec, the highest of p90, p75, p50 with at least 10 samples beyond it",
		"specs":      specs,
	}
}

// report prints the human-readable summary, the environment block, and the
// result as the last line.
func report(out io.Writer, o options, env map[string]any, stats []*specStats, res *result, errs []string) error {
	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%g trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	for _, st := range stats {
		p, t := st.tail()
		fmt.Fprintf(out, "  spec %-16s n=%-5d warmup=%-4d iter=%.3fms p%d=%.3fms setup=%.4fs\n",
			st.name, len(st.durMs), st.warmup, st.iterMs(), p, t, median(st.setupS))
	}
	for _, e := range errs {
		fmt.Fprintf(out, "  FAILED: %s\n", firstLine(e))
	}
	var defs []metricDef
	if o.trace {
		defs = layerMetricDefs()
	} else {
		defs = e2eMetrics
	}
	for _, d := range defs {
		fmt.Fprintf(out, "  %-34s %14.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	if !o.trace {
		fmt.Fprintf(out, "  %-34s %14.6g frac (%d of %d)\n", "failed_frac",
			float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	}
	envLine, err := json.Marshal(map[string]any{"env": env})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(envLine))
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}
