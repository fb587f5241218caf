package engine

import (
	"testing"

	"edgereasoning/internal/hw"
	"edgereasoning/internal/label"
	"edgereasoning/internal/model"
)

// benchEngine builds a fresh 8B/Orin engine outside the timed region.
func benchEngine(b *testing.B) *Engine {
	b.Helper()
	e, err := New(Config{Spec: model.MustLookup(model.DSR1Llama8B), Device: hw.JetsonAGXOrin64GB()})
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// benchStream is the hot-loop workload: a contended open-loop stream of
// long reasoning generations, so the run is dominated by the decode loop
// (KV appends, admission accounting, batch bookkeeping) rather than by
// engine construction.
func benchStream() []TimedRequest {
	reqs := make([]TimedRequest, 16)
	for i := range reqs {
		reqs[i] = TimedRequest{
			Request: Request{
				ID:           label.Question(i),
				PromptTokens: 256,
				OutputTokens: 2048 + 64*i,
			},
			Arrival:  0.25 * float64(i),
			Deadline: 600,
		}
	}
	return reqs
}

// BenchmarkServeHotLoop is the perf-trajectory headline target tracked in
// BENCH_serve.json: one full open-loop Serve over ~35k generated tokens
// at batch 8. scripts/bench.sh records it; the CI benchcheck job gates
// allocs/op regressions against the committed baseline.
func BenchmarkServeHotLoop(b *testing.B) {
	reqs := benchStream()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := benchEngine(b)
		b.StartTimer()
		sm, err := e.Serve(reqs, 8, FCFS)
		if err != nil {
			b.Fatal(err)
		}
		if len(sm.Requests) != len(reqs) {
			b.Fatalf("served %d of %d", len(sm.Requests), len(reqs))
		}
	}
}

// BenchmarkRunHotLoop covers the closed-loop (Run) variant of the same
// decode-dominated workload.
func BenchmarkRunHotLoop(b *testing.B) {
	timed := benchStream()
	reqs := make([]Request, len(timed))
	for i, tr := range timed {
		reqs[i] = tr.Request
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := benchEngine(b)
		b.StartTimer()
		bm, err := e.Run(reqs, 8)
		if err != nil {
			b.Fatal(err)
		}
		if len(bm.Requests) != len(reqs) {
			b.Fatalf("ran %d of %d", len(bm.Requests), len(reqs))
		}
	}
}
