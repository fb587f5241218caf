package main

// metricDef is one metric of BENCHMARK.json. bound applies to end-to-end
// metrics only; moves names, for a per-layer metric, the end-to-end
// metric and the workloads a change to that layer should move, written
// "metric@workload[,workload...]"; several targets are separated by "; ".
type metricDef struct {
	name, unit, better string
	bound              float64
	moves              string
}

// endToEnd are the metrics a user of the simulator sees. Host times are
// the fastest of a run's repetitions or set-ups (see minimum), the peak
// heap the largest, the others the median over its repetitions. A repetition is several set-ups and one
// op batch: one suite run on paper-full, one serve call over the whole
// stream on the serving workloads.
var endToEnd = []metricDef{
	// Construction of engines, fleet config, fault schedule and source
	// (banks on paper-full) before the first timed op.
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "wall_s", unit: "s", better: "lower", bound: 0.25},
	// Process user+sys time over the op, GC and the fleet's concurrent
	// replica drains included.
	{name: "cpu_s", unit: "s", better: "lower", bound: 0.25},
	// Ten seeds spread 0.055 of the median on fleet-chaos, where GC timing
	// under a busy host moves the sampled peak.
	{name: "peak_heap_mb", unit: "MiB", better: "lower", bound: 0.2},
	{name: "allocs_per_op", unit: "count", better: "lower", bound: 0.05},
	{name: "alloc_bytes_per_op", unit: "B", better: "lower", bound: 0.05},
	// Calls into the program (experiment drivers on paper-full, serve
	// calls elsewhere) that returned no error, over those attempted. The
	// full-size tiering driver's KV-capacity abort is one of 39 drivers at
	// seed 7; its fix shows as this rising to 1.
	{name: "calls_ok_frac", unit: "fraction", better: "higher", bound: 0.1},
}

// perLayer are the traced run's metrics. Shares are of the traced ops'
// CPU-profile samples; a sample counts toward the innermost repository
// package on its stack, so standard-library work counts toward the layer
// that called it.
var perLayer = []metricDef{
	{name: "experiments.driver_s.fig9", unit: "s", better: "lower", moves: "wall_s@paper-full"},
	{name: "experiments.driver_s.table12", unit: "s", better: "lower", moves: "wall_s@paper-full"},
	{name: "experiments.driver_s.naturalplan", unit: "s", better: "lower", moves: "wall_s@paper-full"},
	{name: "experiments.driver_s.verify", unit: "s", better: "lower", moves: "wall_s@paper-full"},
	{name: "experiments.driver_s.breakdown", unit: "s", better: "lower", moves: "wall_s@paper-full"},
	{name: "experiments.driver_s.other", unit: "s", better: "lower", moves: "wall_s@paper-full"},
	{name: "experiments.render_s", unit: "s", better: "lower", moves: "wall_s@paper-full"},
	{name: "experiments.drivers_failed", unit: "count", better: "lower", moves: "calls_ok_frac@paper-full"},
	// Scorecard anchors outside the paper's tolerance (0 of 19 at seed 7;
	// cost_per_1M_b30 misses at most other seeds).
	{name: "experiments.anchors_failed", unit: "count", better: "lower"},
	{name: "experiments.cpu_share", unit: "fraction", better: "lower", moves: "wall_s@paper-full"},
	{name: "llm.ns_per_branch", unit: "ns", better: "lower", moves: "wall_s@paper-full; cpu_s@paper-full"},
	{name: "llm.cpu_share", unit: "fraction", better: "lower", moves: "wall_s@paper-full; cpu_s@paper-full"},
	{name: "tts.cpu_share", unit: "fraction", better: "lower", moves: "wall_s@paper-full; cpu_s@paper-full"},
	{name: "data.cpu_share", unit: "fraction", better: "lower", moves: "wall_s@paper-full; cpu_s@paper-full"},
	{name: "workload.ns_per_request", unit: "ns", better: "lower", moves: "wall_s@engine-soak,fleet-chaos"},
	{name: "workload.share", unit: "fraction", better: "lower", moves: "wall_s@engine-soak,fleet-chaos"},
	{name: "workload.cpu_share", unit: "fraction", better: "lower", moves: "wall_s@engine-soak,fleet-chaos"},
	{name: "session.ns_per_request", unit: "ns", better: "lower", moves: "wall_s@agent-sessions; alloc_bytes_per_op@agent-sessions"},
	{name: "session.share", unit: "fraction", better: "lower", moves: "wall_s@agent-sessions; alloc_bytes_per_op@agent-sessions"},
	{name: "session.cpu_share", unit: "fraction", better: "lower", moves: "wall_s@agent-sessions"},
	{name: "engine.self_ns_per_event", unit: "ns", better: "lower", moves: "wall_s@engine-soak"},
	{name: "engine.sim_events_per_s", unit: "1/s", better: "higher", moves: "wall_s@engine-soak"},
	{name: "engine.events", unit: "count", better: "lower"},
	{name: "engine.served", unit: "count", better: "higher"},
	{name: "engine.cpu_share", unit: "fraction", better: "lower", moves: "wall_s@engine-soak"},
	{name: "gpusim.cpu_share", unit: "fraction", better: "lower", moves: "wall_s@engine-soak"},
	{name: "power.cpu_share", unit: "fraction", better: "lower", moves: "wall_s@engine-soak"},
	{name: "stats.cpu_share", unit: "fraction", better: "lower", moves: "wall_s@engine-soak"},
	{name: "stats.percentiles_s", unit: "s", better: "lower", moves: "wall_s@engine-soak"},
	{name: "fleet.self_ns_per_request", unit: "ns", better: "lower", moves: "wall_s@fleet-chaos,agent-sessions; peak_heap_mb@fleet-chaos,agent-sessions"},
	{name: "fleet.cpu_share", unit: "fraction", better: "lower", moves: "wall_s@fleet-chaos,agent-sessions"},
	{name: "fleet.offered", unit: "count", better: "higher"},
	{name: "fleet.served", unit: "count", better: "higher"},
	{name: "fleet.dropped", unit: "count", better: "lower"},
	{name: "fleet.shed", unit: "count", better: "lower"},
	{name: "fleet.crashes", unit: "count", better: "lower"},
	{name: "fleet.aborted", unit: "count", better: "lower"},
	{name: "fleet.retried", unit: "count", better: "lower"},
	{name: "fleet.served_frac", unit: "fraction", better: "higher"},
	{name: "faults.generate_s", unit: "s", better: "lower", moves: "setup_s@fleet-chaos"},
	{name: "kvcache.cpu_share", unit: "fraction", better: "lower", moves: "wall_s@agent-sessions,engine-soak"},
	{name: "kvcache.prefix_lookups", unit: "count", better: "higher"},
	{name: "kvcache.prefix_hit_rate", unit: "fraction", better: "higher"},
	{name: "kvcache.demotions", unit: "count", better: "lower", moves: "wall_s@agent-sessions"},
	{name: "kvcache.promotions", unit: "count", better: "lower", moves: "wall_s@agent-sessions"},
	{name: "kvcache.host_hits", unit: "count", better: "higher"},
	// GC time over non-idle CPU time, from runtime/metrics CPU classes.
	{name: "runtime.gc_cpu_share", unit: "fraction", better: "lower", moves: "allocs_per_op@engine-soak,fleet-chaos; wall_s@engine-soak,fleet-chaos"},
	// Profile samples taken in runtime.memmove or runtime.duffcopy.
	{name: "runtime.memmove_share", unit: "fraction", better: "lower", moves: "wall_s@engine-soak,fleet-chaos"},
	// Traced wall_s over untraced wall_s, minus one.
	{name: "trace_overhead_frac", unit: "fraction", better: "lower"},
}

// layerShares are the repository packages whose CPU-profile share is
// reported as <layer>.cpu_share.
var layerShares = []string{
	"experiments", "llm", "tts", "data", "workload", "session", "engine",
	"gpusim", "power", "stats", "fleet", "kvcache",
}

// timedCounts are host times a repetition reports through its counts;
// the traced run reports their median.
var timedCounts = []string{
	"experiments.driver_s.fig9", "experiments.driver_s.table12",
	"experiments.driver_s.naturalplan", "experiments.driver_s.verify",
	"experiments.driver_s.breakdown", "experiments.driver_s.other",
	"experiments.render_s",
}

// spanMetrics are derived from each traced repetition's spans.
var spanMetrics = []string{
	"workload.ns_per_request", "workload.share",
	"session.ns_per_request", "session.share",
	"engine.self_ns_per_event", "fleet.self_ns_per_request",
	"stats.percentiles_s",
}
