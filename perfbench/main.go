// Command perfbench is the repository's host-time benchmark. It drives the
// simulator only through its Go packages, times its own calls into each
// layer, checks the simulated results, and prints one JSON object as the
// last line of standard output.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload engine-soak --seed 7 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 spends half the
// time untraced and half traced (spans around every layer call plus a CPU
// profile) and reports the per-layer metrics. The workloads, metrics and
// which end-to-end metric each per-layer metric should move are the
// tables in workloads.go and metrics.go.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, runConfig{traceDir: filepath.Join(".bench_build", "perfbench")}))
}

// runConfig carries what differs between the command and its test.
type runConfig struct {
	mini     bool   // miniature workloads
	traceDir string // where a traced run writes its spans
}

// maxProcs bounds the process's parallelism to one thread running Go
// code. On a small shared host a second thread makes wall time depend on
// how contended the other CPU is: on a 2-vCPU VM, agent-sessions' wall-time
// spread across seeds fell from 29% to 3% of its median at one thread.
// Set-up, ops and the fleet's replica drains all run on it.
const maxProcs = 1

func run(args []string, stdout, stderr io.Writer, cfg runConfig) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", defaultSeed, fmt.Sprintf("workload seed (held-out seed for confirming claims: %d)", heldOutSeed))
	secs := fs.Float64("seconds", 10, "how long to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "perfbench: unexpected arguments %q\n", fs.Args())
		return 2
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	case !(*secs > 0) || math.IsInf(*secs, 0):
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if runtime.GOMAXPROCS(0) > maxProcs {
		runtime.GOMAXPROCS(maxProcs)
	}
	traced := *trace == 1
	m, err := bench(w, *seed, time.Duration(*secs*float64(time.Second)), traced, cfg.mini)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res, err := m.report(traced)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if m.wrong != "" {
		fmt.Fprintln(stderr, "perfbench: wrong output:", m.wrong)
	}
	if traced {
		path := filepath.Join(cfg.traceDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, *seed))
		if err := writeTraces(path, m.traced); err != nil {
			fmt.Fprintln(stderr, "perfbench: write spans:", err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "perfbench: %s seed %d: %d repetitions, digest %x\n", w.name, *seed, len(m.untraced)+len(m.traced), m.digest())
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return names
}

// result is the JSON object the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// all returns every repetition, untraced first.
func (m *measurement) all() []sample {
	return append(append([]sample(nil), m.untraced...), m.traced...)
}

// digest is the result digest of the first repetition whose call
// succeeded.
func (m *measurement) digest() [32]byte {
	for _, s := range m.all() {
		if !s.out.opFailed {
			return s.out.digest
		}
	}
	return [32]byte{}
}

// report assembles the printed result: end-to-end metrics from the
// untraced repetitions, or per-layer metrics when traced.
func (m *measurement) report(traced bool) (result, error) {
	res := result{Correct: m.wrong == "", Metrics: map[string]metric{}}
	calls, failedCalls := 0, 0
	for _, s := range m.all() {
		res.Attempted += s.out.ops
		calls += s.out.calls
		failedCalls += s.out.failedCalls
		if s.out.opFailed {
			res.Failed += s.out.ops
		}
	}
	values := map[string]float64{}
	defs := endToEnd
	if !traced {
		base := m.untraced
		perOp := func(f func(sample) float64) float64 {
			return medianOf(base, func(s sample) float64 { return f(s) / float64(max(s.out.ops, 1)) })
		}
		values["setup_s"] = minimum(seconds(m.setups))
		values["wall_s"] = minOf(base, func(s sample) float64 { return s.wall.Seconds() })
		values["cpu_s"] = minOf(base, func(s sample) float64 { return s.cpu.Seconds() })
		// The sampler reads the heap only when the op is preempted, about
		// every 10 ms, so one repetition's reading can miss its peak by a
		// third on a 50 ms op; the largest over the run is the peak.
		values["peak_heap_mb"] = slices.Max(valuesOf(base, func(s sample) float64 { return float64(s.heapPeak) / (1 << 20) }))
		values["allocs_per_op"] = perOp(func(s sample) float64 { return float64(s.allocs) })
		values["alloc_bytes_per_op"] = perOp(func(s sample) float64 { return float64(s.bytes) })
		values["calls_ok_frac"] = float64(calls-failedCalls) / float64(max(calls, 1))
	} else {
		defs = perLayer
		last := m.traced[len(m.traced)-1].out
		for k, v := range last.counts {
			values[k] = v
		}
		for _, k := range timedCounts {
			values[k] = medianOf(m.traced, func(s sample) float64 { return s.out.counts[k] })
		}
		for _, k := range spanMetrics {
			values[k] = medianOf(m.traced, func(s sample) float64 { return s.layer[k] })
		}
		for _, layer := range layerShares {
			values[layer+".cpu_share"] = m.profile.share(layer)
		}
		values["runtime.memmove_share"] = m.profile.leafShare("runtime.memmove", "runtime.duffcopy")
		if m.busyCPU > 0 {
			values["runtime.gc_cpu_share"] = m.gcCPU / m.busyCPU
		}
		values["llm.ns_per_branch"] = m.llmNsPerBranch
		values["faults.generate_s"] = median(seconds(m.faultsGenerate))
		untracedWall := minOf(m.untraced, func(s sample) float64 { return s.wall.Seconds() })
		tracedWall := minOf(m.traced, func(s sample) float64 { return s.wall.Seconds() })
		if untracedWall > 0 {
			values["trace_overhead_frac"] = tracedWall/untracedWall - 1
			values["engine.sim_events_per_s"] = float64(last.events) / untracedWall
		}
	}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res, nil
}

// writeTraces stores each traced repetition's spans as one JSON document.
func writeTraces(path string, samples []sample) error {
	var reps []json.RawMessage
	for _, s := range samples {
		doc, err := s.trace.marshal()
		if err != nil {
			return err
		}
		reps = append(reps, doc)
	}
	buf, err := json.MarshalIndent(map[string]any{"repetitions": reps}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
