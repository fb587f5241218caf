package engine

import (
	"reflect"
	"testing"

	"edgereasoning/internal/label"
	"edgereasoning/internal/model"
	"edgereasoning/internal/telemetry"
)

// TestServeTraceTransparency pins the zero-overhead-when-off contract
// at the engine layer from both sides: a traced serve returns
// ServeMetrics deep-equal to the untraced run of the same stream and
// fault schedule (tracing observes, never perturbs), and the recorded
// spans nest cleanly and stay within the run's clock span.
func TestServeTraceTransparency(t *testing.T) {
	stream := []TimedRequest{
		timed(0, 0, 128, 160, 0),
		timed(1, 0.5, 96, 140, 0),
		timed(2, 1, 200, 80, 0),
		timed(3, 4, 64, 120, 0),
	}
	fx := &FaultInjection{
		Stalls:    []StallWindow{{From: 2, To: 3}},
		Throttles: []ThrottleWindow{{From: 5, To: 9, Factor: 2}},
	}

	plainEng := newOrinEngine(t, model.DSR1Qwen1_5B)
	plain, err := plainEng.ServeSource(NewSliceSource(stream), 2, FCFS, ServeOpts{Faults: fx})
	if err != nil {
		t.Fatal(err)
	}

	tra := telemetry.New(telemetry.Config{})
	tracedEng := newOrinEngine(t, model.DSR1Qwen1_5B)
	tracedEng.cfg.Trace = tra.Track("r0")
	traced, err := tracedEng.ServeSource(NewSliceSource(stream), 2, FCFS, ServeOpts{Faults: fx})
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(plain, traced) {
		t.Errorf("tracing perturbed ServeMetrics:\n plain %+v\ntraced %+v", plain, traced)
	}
	if plainEng.Clock() != tracedEng.Clock() {
		t.Errorf("tracing perturbed the clock: %v vs %v", plainEng.Clock(), tracedEng.Clock())
	}
	if err := telemetry.ValidateSpans(tra); err != nil {
		t.Errorf("recorded spans malformed: %v", err)
	}
	track := tra.Tracks()[0]
	requests, prefills := 0, 0
	for _, s := range track.Spans() {
		if s.Start < 0 || s.End > tracedEng.Clock() {
			t.Errorf("span %s/%s [%v, %v] escapes the run's clock span [0, %v]",
				s.Kind, s.ID, s.Start, s.End, tracedEng.Clock())
		}
		switch s.Kind {
		case telemetry.KindRequest:
			requests++
		case telemetry.KindPrefill:
			prefills++
		}
	}
	if requests != len(stream) || prefills != len(stream) {
		t.Errorf("span ledger incomplete: %d request spans, %d prefill spans, want %d each",
			requests, prefills, len(stream))
	}
}

// BenchmarkTracedServeOff is the zero-overhead gate's bench target: the
// exact BenchmarkServeHotLoop workload with a nil Tracer. scripts/
// bench.sh records it next to BenchmarkServeHotLoop and cmd/benchcheck
// gates its allocs/op, so the tracing hooks adding so much as one
// alloc to the hot loop while disabled fails CI.
func BenchmarkTracedServeOff(b *testing.B) {
	benchTracedServe(b, false)
}

// BenchmarkTracedServeOn measures the same workload with a live Track,
// quantifying the pay-for-what-you-use cost of span recording and gauge
// sampling (reported, not gated — the on-path is allowed to allocate).
func BenchmarkTracedServeOn(b *testing.B) {
	benchTracedServe(b, true)
}

func benchTracedServe(b *testing.B, on bool) {
	reqs := benchStream()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := benchEngine(b)
		if on {
			e.cfg.Trace = telemetry.New(telemetry.Config{}).Track("r0")
		}
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

// TestClosedRunTraceTransparency extends the contract to the closed-batch
// entry points: a traced Run or RunParallel returns BatchMetrics
// deep-equal to the untraced call, its spans nest cleanly inside the
// run's clock span, and the ledger holds one request span per request or
// branch plus one prefill span per prefill (RunParallel prefills once).
func TestClosedRunTraceTransparency(t *testing.T) {
	batch := []Request{
		{ID: label.Question(0), PromptTokens: 128, OutputTokens: 160},
		{ID: label.Question(1), PromptTokens: 96, OutputTokens: 40},
		{ID: label.Question(2), PromptTokens: 200, OutputTokens: 80},
	}
	branches := []int{120, 64, 200, 90}
	cases := []struct {
		name               string
		run                func(*Engine) (BatchMetrics, error)
		requests, prefills int
	}{
		{"run", func(e *Engine) (BatchMetrics, error) { return e.Run(batch, 2) }, len(batch), len(batch)},
		{"parallel", func(e *Engine) (BatchMetrics, error) { return e.RunParallel(256, branches) }, len(branches), 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plainEng := newOrinEngine(t, model.DSR1Qwen1_5B)
			plain, err := tc.run(plainEng)
			if err != nil {
				t.Fatal(err)
			}
			tra := telemetry.New(telemetry.Config{})
			tracedEng := newOrinEngine(t, model.DSR1Qwen1_5B)
			tracedEng.cfg.Trace = tra.Track("r0")
			traced, err := tc.run(tracedEng)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain, traced) {
				t.Errorf("tracing perturbed BatchMetrics:\n plain %+v\ntraced %+v", plain, traced)
			}
			if plainEng.Clock() != tracedEng.Clock() {
				t.Errorf("tracing perturbed the clock: %v vs %v", plainEng.Clock(), tracedEng.Clock())
			}
			if err := telemetry.ValidateSpans(tra); err != nil {
				t.Errorf("recorded spans malformed: %v", err)
			}
			requests, prefills := 0, 0
			for _, s := range tra.Tracks()[0].Spans() {
				if s.Start < 0 || s.End > tracedEng.Clock() {
					t.Errorf("span %s/%s [%v, %v] escapes the run's clock span [0, %v]",
						s.Kind, s.ID, s.Start, s.End, tracedEng.Clock())
				}
				switch s.Kind {
				case telemetry.KindRequest:
					requests++
				case telemetry.KindPrefill:
					prefills++
				}
			}
			if requests != tc.requests || prefills != tc.prefills {
				t.Errorf("span ledger: %d request spans, %d prefill spans, want %d and %d",
					requests, prefills, tc.requests, tc.prefills)
			}
		})
	}
}
