package fleet

import (
	"reflect"
	"testing"

	"edgereasoning/internal/engine"
	"edgereasoning/internal/faults"
	"edgereasoning/internal/label"
	"edgereasoning/internal/model"
	"edgereasoning/internal/telemetry"
	"edgereasoning/internal/workload"
)

// TestTracingTransparencyProperties is the zero-overhead-when-off
// property gate, run under -race in CI: across eight seeds of a faulted
// fleet with the full recovery machinery (and autoscaling on half of
// them), the traced run's Metrics must be deep-equal to the untraced
// run of the same stream and schedule, the recorded spans must nest
// cleanly on every track lane, and the span ledger must match the
// fleet's own accounting — one request span per served request, one
// abort span per destroyed dispatch, one retry-wait span per scheduled
// retry. Each retry's queue span must start where its retry-wait span
// ends, carry that wait's attempt number, and close the flow that its
// abort span opened, one attempt earlier; the streams' IDs are unique,
// so the check pairs spans by request ID.
func TestTracingTransparencyProperties(t *testing.T) {
	retryQueues := 0
	spec := model.MustLookup(model.Qwen25_1_5Bit)
	devices := DefaultDevices()
	for seed := uint64(1); seed <= 8; seed++ {
		const replicas = 3
		const qps = 2.5
		profile := workload.InteractiveAssistant(qps, 120)
		profile.DeadlineSlack = 3
		profile.DeadlineSlackMax = 9
		reqs, err := workload.Generate(profile, seed)
		if err != nil {
			t.Fatal(err)
		}
		horizon := 120 / qps
		sched, err := faults.Generate(faults.GenConfig{
			Replicas: replicas, Horizon: horizon,
			CrashRate: 1.5, RestartDelay: 5,
			StallRate: 1, StallDuration: 2,
			ThrottleRate: 1, ThrottleDuration: horizon / 8, ThrottleFactor: 2,
		}, seed)
		if err != nil {
			t.Fatal(err)
		}
		cfgFor := func(trace *telemetry.Trace) Config {
			cfg := Config{
				Replicas:     HeterogeneousReplicas(replicas, devices, spec),
				Policy:       DeadlineAware,
				Faults:       &sched,
				Retry:        &RetryPolicy{Hedge: true},
				Health:       &HealthConfig{FailureThreshold: 2, ProbeAfter: 1},
				Trace:        trace,
				KeepRequests: true,
			}
			if seed%2 == 0 {
				cfg.Autoscale = &AutoscaleConfig{
					Min: 1, Max: replicas + 2,
					Spec: spec, Devices: devices,
					ColdStart: 2, DepthPerReplica: 2, Cooldown: 0.5,
				}
			}
			return cfg
		}

		plain, err := ServeSource(cfgFor(nil), engine.NewSliceSource(reqs))
		if err != nil {
			t.Fatal(err)
		}
		trace := telemetry.New(telemetry.Config{SpanCap: 1 << 14})
		traced, err := ServeSource(cfgFor(trace), engine.NewSliceSource(reqs))
		if err != nil {
			t.Fatal(err)
		}

		if !reflect.DeepEqual(plain, traced) {
			t.Errorf("seed %d: tracing perturbed fleet Metrics:\n plain %+v\ntraced %+v", seed, plain, traced)
		}
		if err := telemetry.ValidateSpans(trace); err != nil {
			t.Errorf("seed %d: recorded spans malformed: %v", seed, err)
		}
		requestSpans, abortSpans, retrySpans := 0, 0, 0
		opened := map[uint64]telemetry.Span{} // abort spans by the flow they open
		waits := map[label.Label][]telemetry.Span{}
		var queues []telemetry.Span // retries' ingress queue spans
		for _, tr := range trace.Tracks() {
			if tr.Dropped() > 0 {
				t.Errorf("seed %d: track %s dropped %d spans under SpanCap", seed, tr.Name(), tr.Dropped())
			}
			for _, s := range tr.Spans() {
				switch s.Kind {
				case telemetry.KindRequest:
					requestSpans++
				case telemetry.KindAborted:
					abortSpans++
					opened[s.Flow] = s
				case telemetry.KindRetryWait:
					retrySpans++
					waits[s.ID] = append(waits[s.ID], s)
				case telemetry.KindQueue:
					if tr.Name() == "ingress" && (s.Attempt > 0 || s.Flow != 0) {
						queues = append(queues, s)
					}
				}
			}
		}
		for _, q := range queues {
			ab, ok := opened[q.Flow]
			if !ok || ab.ID != q.ID || ab.Attempt+1 != q.Attempt {
				t.Errorf("seed %d: retry queue span %+v closes no open flow of its abort (found %v: %+v)", seed, q, ok, ab)
				continue
			}
			delete(opened, q.Flow)
			matched := false
			for _, w := range waits[q.ID] {
				matched = matched || (w.Start == ab.End && w.End == q.Start && w.Attempt == q.Attempt)
			}
			if !matched {
				t.Errorf("seed %d: retry queue span %+v follows no retry-wait span of attempt %d ending at its start: %+v",
					seed, q, q.Attempt, waits[q.ID])
			}
		}
		retryQueues += len(queues)
		if requestSpans != traced.Served {
			t.Errorf("seed %d: %d request spans, served %d", seed, requestSpans, traced.Served)
		}
		if abortSpans != traced.Aborted {
			t.Errorf("seed %d: %d abort spans, aborted %d", seed, abortSpans, traced.Aborted)
		}
		if retrySpans != traced.Retried {
			t.Errorf("seed %d: %d retry-wait spans, retried %d", seed, retrySpans, traced.Retried)
		}
	}
	if retryQueues == 0 {
		t.Fatal("degenerate sample: no retry was dispatched")
	}
}
