package main

// metricDef declares one reported metric. The lists below must match
// BENCHMARK.json at the repository root; the end-to-end test checks that.
type metricDef struct {
	name, unit, better string
}

// e2eMetrics are printed with tracing off. failed_frac is printed in the
// human-readable report and carried by the result's failed and attempted
// counts; it is not a metric of the result line, because it is 0 on a
// correct run and a zero metric has no relative spread.
var e2eMetrics = []metricDef{
	{"iter_ms", "ms", "lower"},
	{"iter_tail_ms", "ms", "lower"},
	{"cpu_ms_per_iter", "ms", "lower"},
	{"allocs_per_iter", "count", "lower"},
	{"alloc_kb_per_iter", "KiB", "lower"},
	{"heap_live_peak_mb", "MiB", "lower"},
	{"setup_s", "s", "lower"},
}

// workloadDef is one workload: the registered specs it runs, the size
// factor they run at, and the replay that traces the same calls.
type workloadDef struct {
	name   string
	specs  []string
	size   float64
	replay func(seed int64, scale float64) (replayer, error)
}

var workloads = []workloadDef{
	{"store", []string{"db-shootout", "neo4j-analytics"}, 1.25, newStoreReplay},
	{"serve", []string{"finagle-http", "finagle-chirper"}, 2, newServeReplay},
	{"compile", []string{"dotty"}, 2, newCompileReplay},
	{"dataflow", []string{"scrabble", "rx-scrabble", "als", "page-rank", "log-regression", "fj-kmeans"}, 2, newDataflowReplay},
	{"messaging", []string{"akka-uct", "reactors", "philosophers", "stm-bench7", "future-genetic"}, 2, newMessagingReplay},
}

// primNames are the metrics-package counters reported per measured
// iteration, with the names they carry in the output.
var primNames = []string{
	"synch", "wait", "notify", "atomic", "park", "object", "array", "method",
	"idynamic", "stmabort", "stmextend", "deadletter", "rddrecompute",
}

// layerMetricDefs returns every per-layer metric, in output order.
func layerMetricDefs() []metricDef {
	var defs []metricDef
	for _, w := range workloads {
		for _, s := range w.specs {
			defs = append(defs,
				metricDef{"spec." + s + ".iter_ms", "ms", "lower"},
				metricDef{"spec." + s + ".allocs_per_iter", "count", "lower"})
		}
	}
	for _, p := range primNames {
		defs = append(defs, metricDef{"prim." + p, "count", "lower"})
	}
	defs = append(defs,
		metricDef{"rt.gc_cpu_frac", "frac", "lower"},
		metricDef{"rt.gc_cycles_per_iter", "count", "lower"},
		metricDef{"rt.sched_wait_p99_us", "us", "lower"},
		metricDef{"rt.mutex_wait_us_per_iter", "us", "lower"},
		metricDef{"rt.idle_frac", "frac", "lower"},
	)
	for _, l := range layerNames {
		defs = append(defs, metricDef{l + ".self_ms_per_iter", "ms", "lower"})
	}
	defs = append(defs,
		metricDef{"memdb.put_ns", "ns", "lower"},
		metricDef{"memdb.get_ns", "ns", "lower"},
		metricDef{"memdb.range_ns", "ns", "lower"},
		metricDef{"memdb.delete_ns", "ns", "lower"},
		metricDef{"memdb.sharded-hash.ms_per_iter", "ms", "lower"},
		metricDef{"memdb.skiplist.ms_per_iter", "ms", "lower"},
		metricDef{"memdb.btree.ms_per_iter", "ms", "lower"},
		metricDef{"graphdb.commit_us", "us", "lower"},
		metricDef{"graphdb.match_us", "us", "lower"},
		metricDef{"graphdb.aggregate_us", "us", "lower"},
		metricDef{"graphdb.shortest_path_us", "us", "lower"},
		metricDef{"graphdb.top_degree_us", "us", "lower"},
		metricDef{"netstack.rtt_p50_us", "us", "lower"},
		metricDef{"netstack.rtt_p99_us", "us", "lower"},
		metricDef{"netstack.conn_setup_us", "us", "lower"},
		metricDef{"netstack.ok_frac", "frac", "higher"},
		metricDef{"futures.async_us", "us", "lower"},
		metricDef{"futures.await_us", "us", "lower"},
		metricDef{"cache.hit_frac", "frac", "higher"},
		metricDef{"minilang.lex_us", "us", "lower"},
		metricDef{"minilang.parse_us", "us", "lower"},
		metricDef{"minilang.check_us", "us", "lower"},
		metricDef{"minilang.codegen_us", "us", "lower"},
		metricDef{"rvm.run_us", "us", "lower"},
		metricDef{"rvm.code_instrs", "count", "lower"},
		metricDef{"rvm.ic_hit_frac", "frac", "higher"},
		metricDef{"streams.scrabble_ms", "ms", "lower"},
		metricDef{"streams.groupby_us", "us", "lower"},
		metricDef{"rx.scrabble_ms", "ms", "lower"},
		metricDef{"rdd.als_train_ms", "ms", "lower"},
		metricDef{"rdd.pagerank_ms", "ms", "lower"},
		metricDef{"rdd.logreg_ms", "ms", "lower"},
		metricDef{"forkjoin.for_empty_us", "us", "lower"},
		metricDef{"actors.ask_us", "us", "lower"},
		metricDef{"actors.tell_ns", "ns", "lower"},
		metricDef{"stm.atomically_us", "us", "lower"},
		metricDef{"stm.commit_frac", "frac", "higher"},
		metricDef{"trace.overhead_frac", "frac", "lower"},
	)
	return defs
}
