package main

import (
	"flag"
	"fmt"
	"os"

	"edgereasoning/internal/experiments"
	"edgereasoning/internal/telemetry"
)

// traceCmd serves a faulted, autoscaled open-loop run with telemetry on
// and exports the result: a Chrome trace-event JSON (load it at
// ui.perfetto.dev — one track per replica plus the shared ingress and
// faults tracks, flow arrows linking crash aborts to their retries) and
// an optional Prometheus text-format snapshot of the run's final
// series and histograms. The emitted JSON is validated before it is
// written, so a reported success is loadable by construction.
func traceCmd(fs *flag.FlagSet, cfg *config) func(string) error {
	out := fs.String("out", "trace.json", "Chrome trace-event JSON output path")
	metricsOut := fs.String("metrics-out", "", "Prometheus snapshot output path (empty = skip)")
	tc := experiments.TraceConfig{}
	fs.IntVar(&tc.Requests, "requests", 400, "requests to stream")
	fs.Float64Var(&tc.QPS, "qps", 2.2, "offered load in requests/s")
	fs.IntVar(&tc.Replicas, "replicas", 2, "initial pool size")
	fs.IntVar(&tc.Max, "max", 4, "autoscale pool ceiling")
	fs.Float64Var(&tc.CrashRate, "crash-rate", 1.5, "expected crashes per configured replica")
	fs.Float64Var(&tc.Throttle, "throttle", 2, "thermal-throttle slowdown factor (1 = none)")
	return func(string) error {
		tc.Seed = cfg.opts.Seed
		m, trace, err := experiments.TraceRun(tc)
		if err != nil {
			return err
		}
		if err := writeFile(*out, trace.WriteChromeTrace); err != nil {
			return err
		}
		data, err := os.ReadFile(*out)
		if err != nil {
			return err
		}
		if err := telemetry.ValidateChromeTrace(data); err != nil {
			return fmt.Errorf("trace: emitted JSON failed validation: %w", err)
		}
		spans := 0
		for _, tr := range trace.Tracks() {
			spans += len(tr.Spans())
			if d := tr.Dropped(); d > 0 {
				fmt.Fprintf(os.Stderr, "trace: track %s dropped %d spans (raise SpanCap)\n", tr.Name(), d)
			}
		}
		fmt.Printf("trace: served %d/%d requests over %.0fs sim (%d crashes, %d aborted, %d retried, %d scale-ups)\n",
			m.Served, m.Offered, m.WallTime, m.Crashes, m.Aborted, m.Retried, m.ScaleUps)
		fmt.Printf("  wrote %s (%d tracks, %d spans) — open at ui.perfetto.dev\n",
			*out, len(trace.Tracks()), spans)
		if *metricsOut != "" {
			if err := writeFile(*metricsOut, trace.WritePrometheus); err != nil {
				return err
			}
			fmt.Printf("  wrote %s (Prometheus text format)\n", *metricsOut)
		}
		fmt.Printf("  %-16s %8s %8s %8s\n", "replica", "served", "busy_s", "crashes")
		for _, rb := range m.PerReplica() {
			fmt.Printf("  %-16s %8d %8.1f %8d\n", rb.Name, rb.Served, rb.BusySeconds, rb.Crashes)
		}
		return nil
	}
}
