// Command edgereasoning regenerates the paper's tables and figures on the
// simulated Jetson AGX Orin platform.
//
// Usage:
//
//	edgereasoning list                 # show available experiment IDs
//	edgereasoning run <id> [flags]     # run one experiment
//	edgereasoning all [flags]          # run the full suite
//	edgereasoning fleet [flags]        # heterogeneous-fleet serving sweep
//	edgereasoning sessions [flags]     # multi-turn agentic serving study
//	edgereasoning tiering [flags]      # host-DRAM KV tier vs device-cache size
//	edgereasoning autoscale [flags]    # elastic fleet + ingress admission study
//	edgereasoning saturate [flags]     # saturation-knee capacity analysis
//	edgereasoning drills [flags]       # fault-injection outage drills
//	edgereasoning soak [flags]         # streamed large-N soak (sim-events/sec)
//	edgereasoning trace [flags]        # faulted autoscaled run with telemetry export
//	edgereasoning sweep <id> [flags]   # fan one experiment across seeds
//
// Each command takes only its own flags, so a flag that belongs to
// another command is an error; `edgereasoning <cmd> -h` lists them. Every
// command that simulates takes -cpuprofile and -memprofile. The
// experiment drivers check their own arguments and reject a bad value
// before they build their first engine.
//
// Experiments run on a worker pool but the report is emitted in suite
// order, so output is byte-identical at any parallelism.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"edgereasoning/internal/engine"
	"edgereasoning/internal/experiments"
	"edgereasoning/internal/hw"
	"edgereasoning/internal/model"
	"edgereasoning/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "edgereasoning:", err)
		os.Exit(1)
	}
}

// config is the parsed flag set for one invocation.
type config struct {
	opts       experiments.Options
	csvDir     string
	parallel   int
	timeout    time.Duration
	metrics    bool
	cpuProfile string
	memProfile string
	seeds      []uint64
}

func (c config) runnerOptions() experiments.RunnerOptions {
	return experiments.RunnerOptions{Parallelism: c.parallel, Timeout: c.timeout}
}

// flagGroup is a set of flags that several commands share. Each group is
// registered in one place, by register.
type flagGroup uint8

const (
	seedFlag     flagGroup = 1 << iota // -seed
	profileFlags                       // -cpuprofile, -memprofile
	reportFlags                        // -quick, -csv, -parallel, -timeout, -metrics
	suiteFlags   = seedFlag | profileFlags | reportFlags
)

func (g flagGroup) register(fs *flag.FlagSet, cfg *config) {
	if g&seedFlag != 0 {
		fs.Uint64Var(&cfg.opts.Seed, "seed", 7, "random seed")
	}
	if g&profileFlags != 0 {
		fs.StringVar(&cfg.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
		fs.StringVar(&cfg.memProfile, "memprofile", "", "write a heap profile at exit to this file")
	}
	if g&reportFlags != 0 {
		fs.BoolVar(&cfg.opts.Quick, "quick", false, "subsample large banks")
		fs.StringVar(&cfg.csvDir, "csv", "", "also write each table as `DIR`/<table-id>.csv")
		fs.IntVar(&cfg.parallel, "parallel", 0, "worker count (0 = GOMAXPROCS)")
		fs.DurationVar(&cfg.timeout, "timeout", 0, "per-driver timeout, e.g. 90s (0 = none)")
		fs.BoolVar(&cfg.metrics, "metrics", false, "print per-driver wall time and table counts to stderr")
	}
}

// binder registers a command's own flags, writing experiment knobs
// straight into cfg.opts, and returns the action to run once the flags
// parse; id is the command's experiment ID, if it takes one.
type binder func(fs *flag.FlagSet, cfg *config) (action func(id string) error)

// command is one entry of the CLI's command table.
type command struct {
	name  string
	id    bool // takes an experiment ID before its flags
	about string
	flags flagGroup
	bind  binder
}

func (c command) synopsis() string {
	s := c.name
	if c.id {
		s += " <id>"
	}
	if c.flags != 0 {
		s += " [flags]"
	}
	return s
}

// commands is the CLI, in usage order.
var commands = []command{
	{name: "list", about: "show available experiment IDs", bind: func(*flag.FlagSet, *config) func(string) error {
		return func(string) error {
			for _, id := range experiments.IDs() {
				fmt.Println(id)
			}
			return nil
		}
	}},
	{name: "run", id: true, about: `run one experiment (e.g. "run table2")`, flags: suiteFlags,
		bind: func(_ *flag.FlagSet, cfg *config) func(string) error {
			return func(id string) error { return execute([]string{id}, *cfg) }
		}},
	{name: "all", about: "run the full suite", flags: suiteFlags,
		bind: func(_ *flag.FlagSet, cfg *config) func(string) error {
			return func(string) error { return execute(experiments.IDs(), *cfg) }
		}},
	{name: "fleet", about: "route open-loop traffic across a heterogeneous fleet", flags: suiteFlags,
		bind: study("fleet", func(fs *flag.FlagSet, o *experiments.Options) {
			fs.IntVar(&o.FleetReplicas, "replicas", 0, "fleet size (0 = driver default of 4)")
			devicesFlag(fs, o)
			fs.StringVar(&o.FleetPolicy, "policy", "all", "routing policy: round-robin, least-queue, latency-weighted, deadline-aware or all")
			fs.Float64Var(&o.FleetQPS, "qps", 0, "offered load in requests/s (0 = driver default of 2.0)")
		})},
	{name: "sessions", about: "multi-turn agentic serving with prefix KV caching", flags: suiteFlags,
		bind: study("sessions", func(fs *flag.FlagSet, o *experiments.Options) {
			sessionFlags(fs, o)
			fs.StringVar(&o.SessionPolicy, "policy", "all", "affinity-table routing policy: round-robin, least-queue, session-affinity or all")
		})},
	{name: "tiering", about: "host-DRAM KV tier swept against device-cache size", flags: suiteFlags,
		bind: study("tiering", func(fs *flag.FlagSet, o *experiments.Options) {
			sessionFlags(fs, o)
			fs.StringVar(&o.TierDeviceBlocks, "device-blocks", "", "comma-separated device-cache sweep in blocks (default 192,384,768)")
			fs.IntVar(&o.TierHostBlocks, "host-blocks", 0, "host-tier capacity in blocks (0 = driver default of 1024)")
			fs.Float64Var(&o.TierLinkBW, "bw", 0, "host-link bandwidth in bytes/s (0 = driver default of 16e9)")
		})},
	{name: "autoscale", about: "elastic replica pool + ingress admission disciplines", flags: suiteFlags,
		bind: study("autoscale", func(fs *flag.FlagSet, o *experiments.Options) {
			fs.IntVar(&o.AutoMin, "min", 0, "autoscale pool floor (0 = driver default of 1)")
			fs.IntVar(&o.AutoMax, "max", 0, "autoscale pool ceiling (0 = driver default of 6)")
			fs.StringVar(&o.AutoAdmission, "admission", "", "ingress discipline: fifo, edf, sjf or shed (default fifo)")
			fs.StringVar(&o.AutoScaleOn, "scale-on", "", "scale-up signals: depth, miss or both (default both)")
			devicesFlag(fs, o)
			fs.Float64Var(&o.FleetQPS, "qps", 0, "background load in requests/s (0 = driver default of 0.2; the spike is 100x)")
		})},
	{name: "saturate", about: "binary-search offered QPS to the SLO saturation knee", flags: suiteFlags,
		bind: study("saturate", func(fs *flag.FlagSet, o *experiments.Options) {
			fs.Float64Var(&o.SatSLO, "slo", 0, "objective: p99 bound in seconds or hit-rate floor in [0,1] (0 = metric default)")
			fs.StringVar(&o.SatMetric, "metric", "", "saturation metric: p99 or hitrate (default p99)")
			fs.IntVar(&o.SatRequests, "requests", 0, "requests offered per probe (0 = driver default of 240)")
			devicesFlag(fs, o)
		})},
	{name: "drills", about: "fault-injection outage drills: crashes, stalls, throttling", flags: suiteFlags,
		bind: study("drills", func(fs *flag.FlagSet, o *experiments.Options) {
			fs.IntVar(&o.DrillReplicas, "replicas", 0, "pool size under fault injection (0 = driver default of 3)")
			fs.Float64Var(&o.DrillRestart, "restart", 0, "crash restart delay in seconds (0 = driver default of 5)")
			devicesFlag(fs, o)
		})},
	{name: "soak", about: "stream a large open-loop run end to end (sim-events/sec)",
		flags: seedFlag | profileFlags, bind: soak},
	{name: "trace", about: "trace a faulted autoscaled run; export Perfetto JSON + Prometheus snapshot",
		flags: seedFlag | profileFlags, bind: traceCmd},
	{name: "sweep", id: true, about: "fan one experiment across seeds (variance estimation)",
		flags: profileFlags | reportFlags, bind: sweep},
}

// study binds a command that runs the experiment id with the knobs that
// knobs registers.
func study(id string, knobs func(fs *flag.FlagSet, o *experiments.Options)) binder {
	return func(fs *flag.FlagSet, cfg *config) func(string) error {
		knobs(fs, &cfg.opts)
		return func(string) error { return execute([]string{id}, *cfg) }
	}
}

func devicesFlag(fs *flag.FlagSet, o *experiments.Options) {
	fs.StringVar(&o.FleetDevices, "devices", "", "comma-separated device cycle (default orin,orin-50w,orin-30w)")
}

func sessionFlags(fs *flag.FlagSet, o *experiments.Options) {
	fs.IntVar(&o.SessionCount, "sessions", 0, "concurrent sessions (0 = driver default of 10)")
	fs.IntVar(&o.SessionTurns, "turns", 0, "agent-loop turns per session (0 = driver default of 5)")
	fs.IntVar(&o.SessionBranch, "branch", 0, "parallel think samples at branch turns (0 = driver default of 2)")
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return errors.New("missing command")
	}
	name, rest := args[0], args[1:]
	if name == "help" || name == "-h" || name == "--help" {
		usage()
		return nil
	}
	for _, c := range commands {
		if c.name == name {
			return c.exec(rest)
		}
	}
	usage()
	return fmt.Errorf("unknown command %q", name)
}

// exec parses the command's flags, starts the requested profiles and runs
// the command under them.
func (c command) exec(args []string) (err error) {
	var id string
	if c.id {
		if len(args) == 0 {
			return fmt.Errorf("%s: missing experiment id", c.name)
		}
		id, args = args[0], args[1:]
	}
	var cfg config
	fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: edgereasoning %s\n  %s\n\nflags:\n", c.synopsis(), c.about)
		fs.PrintDefaults()
	}
	c.flags.register(fs, &cfg)
	action := c.bind(fs, &cfg)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("%s: unexpected arguments %q (usage: edgereasoning %s)", c.name, fs.Args(), c.synopsis())
	}
	stopProfiles, err := startProfiles(cfg.cpuProfile, cfg.memProfile)
	if err != nil {
		return err
	}
	defer func() {
		// A broken profile write should not mask a command failure.
		if perr := stopProfiles(); perr != nil && err == nil {
			err = perr
		}
	}()
	return action(id)
}

func parseSeeds(list string) ([]uint64, error) {
	if list == "" {
		seeds := make([]uint64, 8)
		for i := range seeds {
			seeds[i] = uint64(i + 1)
		}
		return seeds, nil
	}
	parts := strings.Split(list, ",")
	seeds := make([]uint64, 0, len(parts))
	seen := make(map[uint64]bool, len(parts))
	for _, p := range parts {
		s, err := strconv.ParseUint(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q: %w", p, err)
		}
		// Duplicates would render the same section twice and silently
		// clobber each other's seed-tagged CSV.
		if seen[s] {
			return nil, fmt.Errorf("duplicate seed %d", s)
		}
		seen[s] = true
		seeds = append(seeds, s)
	}
	return seeds, nil
}

// execute runs the IDs on the worker pool and streams each result's
// tables through Render/CSV in suite order as they become ready.
// Driver failures are collected rather than aborting the suite.
func execute(ids []string, cfg config) error {
	return emit(cfg, len(ids), false, func(ctx context.Context) <-chan experiments.Result {
		return experiments.Stream(ctx, ids, cfg.opts, cfg.runnerOptions())
	})
}

// soak streams a large open-loop workload through a single engine with
// lean metrics — the request stream is generated lazily and never
// materialized, so live memory is O(active batch), not O(requests) —
// and reports simulation throughput in sim-events/sec (prefills plus
// decode chunks, the clock-advancing units of work).
func soak(fs *flag.FlagSet, cfg *config) func(string) error {
	requests := fs.Float64("requests", 1e6, "requests to stream (accepts 1e6 notation)")
	qps := fs.Float64("qps", 0.8, "offered load in requests/s (keep below the single-engine knee of ~1.1)")
	return func(string) error {
		n := int(*requests)
		if n <= 0 || float64(n) != *requests {
			return fmt.Errorf("soak: -requests must be a positive integer, got %g", *requests)
		}
		if *qps <= 0 {
			return fmt.Errorf("soak: -qps must be positive")
		}
		src, err := workload.NewSource(workload.InteractiveAssistant(*qps, n), cfg.opts.Seed)
		if err != nil {
			return err
		}
		eng, err := engine.New(engine.Config{Spec: model.MustLookup(model.Qwen25_1_5Bit), Device: hw.JetsonAGXOrin64GB()})
		if err != nil {
			return err
		}
		start := time.Now()
		m, err := eng.ServeSource(src, 8, engine.FCFS, engine.ServeOpts{LeanMetrics: true})
		if err != nil {
			return err
		}
		wall := time.Since(start)
		runtime.GC() // settle the heap so the live figure excludes garbage
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		fmt.Printf("soak: %d requests streamed in %s wall (%.0f sim-events/s)\n",
			n, wall.Round(time.Millisecond), float64(m.Events)/wall.Seconds())
		fmt.Printf("  served %d, events %d, sim time %.0fs, p99 %.2fs, mean %.3fs\n",
			m.Served, m.Events, eng.Clock(), m.P99Latency, m.MeanLatency)
		fmt.Printf("  live heap after run %.1f MB\n", float64(ms.HeapAlloc)/(1<<20))
		return nil
	}
}

// sweep fans one driver across seeds and renders each seed's tables in
// seed order, tagging the section headers with the seed.
func sweep(fs *flag.FlagSet, cfg *config) func(string) error {
	cfg.seeds, _ = parseSeeds("") // the default list cannot fail
	fs.Func("seeds", "comma-separated seeds (default 1..8)", func(list string) (err error) {
		if list == "" {
			return errors.New("want a non-empty list")
		}
		cfg.seeds, err = parseSeeds(list)
		return err
	})
	return func(id string) error {
		// Pre-flight the ID: an unknown experiment is one typo, not one
		// failure per seed.
		if !experiments.Known(id) {
			return experiments.UnknownIDError(id)
		}
		return emit(*cfg, len(cfg.seeds), true, func(ctx context.Context) <-chan experiments.Result {
			return experiments.StreamSweep(ctx, id, cfg.seeds, cfg.opts, cfg.runnerOptions())
		})
	}
}

// label names one result in failure lists and metrics rows; sweep results
// are qualified by seed since every row shares the experiment ID.
func label(r experiments.Result, bySeed bool) string {
	if bySeed {
		return fmt.Sprintf("%s@seed%d", r.ID, r.Seed)
	}
	return r.ID
}

// emit consumes an ordered result stream under an interrupt-aware
// context, rendering each successful result's tables to stdout (and CSV)
// as they arrive and collecting failures instead of aborting on the
// first one. Failed claims are summed per result into one stderr line,
// in report order. bySeed switches on the sweep dressing: per-result
// seed headers and seed-tagged CSV names.
func emit(cfg config, total int, bySeed bool, stream func(context.Context) <-chan experiments.Result) error {
	if cfg.csvDir != "" {
		if err := os.MkdirAll(cfg.csvDir, 0o755); err != nil {
			return err
		}
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	start := time.Now()
	var stats []driverStat
	var failed, claims []string
	var firstErr error
	failedClaims := 0
	interrupted := 0
	for res := range stream(ctx) {
		stats = append(stats, driverStat{
			label:  label(res, bySeed),
			wall:   res.Wall,
			tables: res.TableCount(),
			err:    res.Err,
		})
		if res.Err != nil {
			// A Ctrl-C is not a driver failure: count cancelled results
			// separately and report the interrupt once at the end.
			if errors.Is(res.Err, context.Canceled) {
				interrupted++
				continue
			}
			if firstErr == nil {
				firstErr = res.Err
			}
			failed = append(failed, label(res, bySeed))
			// With a single experiment the returned error already carries
			// the cause; the extra stderr line would print it twice.
			if total > 1 {
				fmt.Fprintf(os.Stderr, "edgereasoning: %s: %v\n", label(res, bySeed), res.Err)
			}
			continue
		}
		if n := res.Failed(); n > 0 {
			failedClaims += n
			claims = append(claims, fmt.Sprintf("%s %d", label(res, bySeed), n))
		}
		if bySeed {
			fmt.Printf("-- %s @ seed %d --\n", res.ID, res.Seed)
		}
		for i := range res.Tables {
			if err := res.Tables[i].Render(os.Stdout); err != nil {
				return fmt.Errorf("%s: render: %w", label(res, bySeed), err)
			}
			if cfg.csvDir != "" {
				t := res.Tables[i]
				if bySeed {
					t.ID = fmt.Sprintf("%s-seed%d", t.ID, res.Seed)
				}
				if err := writeCSV(cfg.csvDir, &t); err != nil {
					return fmt.Errorf("%s: csv: %w", label(res, bySeed), err)
				}
			}
		}
	}
	if cfg.metrics {
		printMetrics(stats, time.Since(start))
	}
	if failedClaims > 0 {
		fmt.Fprintf(os.Stderr, "edgereasoning: %d claims FAIL (%s)\n", failedClaims, strings.Join(claims, ", "))
	}
	switch {
	case len(failed) == 0 && interrupted == 0:
		return nil
	case len(failed) == 1 && total == 1:
		// Preserve the error chain when a single experiment was asked for.
		return fmt.Errorf("%s: %w", failed[0], firstErr)
	case interrupted > 0 && len(failed) == 0:
		// "not completed", not "not run": an in-flight driver abandoned by
		// the interrupt had started, its work discarded.
		return fmt.Errorf("interrupted: %d of %d experiments not completed", interrupted, total)
	case interrupted > 0:
		return fmt.Errorf("%d of %d experiments failed (%s); interrupted with %d more not completed",
			len(failed), total, strings.Join(failed, ", "), interrupted)
	default:
		return fmt.Errorf("%d of %d experiments failed: %s",
			len(failed), total, strings.Join(failed, ", "))
	}
}

// startProfiles begins CPU profiling (when cpuPath is set) and returns a
// stop function that ends it and writes a heap profile (when memPath is
// set), so suite runs can be profiled without editing code:
//
//	edgereasoning all -quick -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof cpu.out
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() error {
		var first error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				first = err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				if first == nil {
					first = err
				}
				return first
			}
			runtime.GC() // settle the heap so the profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil && first == nil {
				first = err
			}
			if err := f.Close(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}, nil
}

// driverStat is the lightweight per-driver record kept for -metrics, so
// rendered tables can be dropped as soon as they are emitted.
type driverStat struct {
	label  string
	wall   time.Duration
	tables int
	err    error
}

// printMetrics writes per-driver and suite-level metrics to stderr so the
// report on stdout stays byte-stable.
func printMetrics(stats []driverStat, elapsed time.Duration) {
	fmt.Fprintf(os.Stderr, "\n%-20s %10s %7s  %s\n", "experiment", "wall", "tables", "status")
	var driverTime time.Duration
	var tables, errs, interrupted int
	for _, s := range stats {
		status := "ok"
		switch {
		case s.err == nil:
		case errors.Is(s.err, context.Canceled):
			// Match emit's classification: a Ctrl-C is not a failure.
			status = "interrupted"
			interrupted++
		default:
			status = s.err.Error()
			errs++
		}
		fmt.Fprintf(os.Stderr, "%-20s %10s %7d  %s\n",
			s.label, s.wall.Round(time.Millisecond), s.tables, status)
		driverTime += s.wall
		tables += s.tables
	}
	speedup := float64(driverTime) / float64(elapsed)
	suffix := ""
	if interrupted > 0 {
		suffix = fmt.Sprintf(", %d interrupted", interrupted)
	}
	fmt.Fprintf(os.Stderr,
		"suite: %d drivers, %d tables, %d errors%s; driver time %s, wall %s (%.1fx)\n",
		len(stats), tables, errs, suffix,
		driverTime.Round(time.Millisecond), elapsed.Round(time.Millisecond), speedup)
}

func writeCSV(dir string, t *experiments.Table) error {
	return writeFile(filepath.Join(dir, t.ID+".csv"), t.WriteCSV)
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func usage() {
	var b strings.Builder
	b.WriteString("edgereasoning — reproduce the EdgeReasoning paper's evaluation\n\ncommands:\n")
	for _, c := range commands {
		fmt.Fprintf(&b, "  %-20s %s\n", c.synopsis(), c.about)
	}
	b.WriteString("\nrun 'edgereasoning <command> -h' for a command's flags\n")
	fmt.Fprint(os.Stderr, b.String())
}
