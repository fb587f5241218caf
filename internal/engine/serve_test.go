package engine

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"edgereasoning/internal/label"
	"edgereasoning/internal/model"
)

func timed(i int, arrival float64, prompt, output int, deadline float64) TimedRequest {
	return TimedRequest{
		Request:  Request{ID: label.Question(i), PromptTokens: prompt, OutputTokens: output},
		Arrival:  arrival,
		Deadline: deadline,
	}
}

func TestServeSingleRequest(t *testing.T) {
	e := newOrinEngine(t, model.DSR1Qwen1_5B)
	m, err := e.Serve([]TimedRequest{timed(0, 5, 64, 100, 0)}, 1, FCFS)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Requests) != 1 {
		t.Fatalf("completed %d requests", len(m.Requests))
	}
	// The engine must idle-jump to the arrival, then serve.
	if len(m.Latencies) != 1 || m.Latencies[0] <= 0 {
		t.Errorf("latency accounting wrong: %v", m.Latencies)
	}
	// Latency excludes pre-arrival time.
	if m.Latencies[0] > 10 {
		t.Errorf("latency %.2f includes idle time before arrival", m.Latencies[0])
	}
	if st := e.CacheStats(); st.UsedBlocks != 0 {
		t.Errorf("leaked blocks: %+v", st)
	}
}

func TestServeRejectsPastArrivals(t *testing.T) {
	e := newOrinEngine(t, model.DSR1Qwen1_5B)
	if _, err := e.Generate(Request{ID: label.Probe(), PromptTokens: 32, OutputTokens: 32}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Serve([]TimedRequest{timed(0, 0, 32, 32, 0)}, 1, FCFS); err == nil {
		t.Error("arrival before the engine clock must be rejected")
	}
}

func TestServeLatencyIncludesQueueing(t *testing.T) {
	e := newOrinEngine(t, model.DSR1Llama8B)
	// Two requests arriving together, served at batch 1: the second waits.
	m, err := e.Serve([]TimedRequest{
		timed(0, 0, 64, 200, 0),
		timed(1, 0, 64, 200, 0),
	}, 1, FCFS)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Latencies) != 2 {
		t.Fatal("want 2 completions")
	}
	if m.Latencies[1] < m.Latencies[0]*1.8 {
		t.Errorf("second request should wait for the first: %.2f vs %.2f", m.Latencies[1], m.Latencies[0])
	}
}

func TestServeDeadlineAccounting(t *testing.T) {
	e := newOrinEngine(t, model.DSR1Qwen1_5B)
	m, err := e.Serve([]TimedRequest{
		timed(0, 0, 64, 50, 60),   // generous deadline
		timed(1, 0, 64, 2000, 10), // 2000 tokens cannot fit 10s
	}, 2, FCFS)
	if err != nil {
		t.Fatal(err)
	}
	if m.DeadlinesTotal != 2 {
		t.Fatalf("deadline total = %d, want 2", m.DeadlinesTotal)
	}
	if m.DeadlinesMet != 1 {
		t.Errorf("deadlines met = %d, want 1", m.DeadlinesMet)
	}
	if math.Abs(m.HitRate()-0.5) > 1e-9 {
		t.Errorf("hit rate = %v, want 0.5", m.HitRate())
	}
}

func TestServeEDFPrioritizesUrgent(t *testing.T) {
	// Three requests arrive together; the most urgent is listed last.
	// EDF must serve it first at batch 1; FCFS must not.
	build := func() []TimedRequest {
		return []TimedRequest{
			timed(0, 0, 64, 400, 500),
			timed(1, 0, 64, 400, 500),
			timed(2, 0, 64, 100, 18),
		}
	}
	run := func(pol SchedPolicy) ServeMetrics {
		e := newOrinEngine(t, model.DSR1Qwen1_5B)
		m, err := e.Serve(build(), 1, pol)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	fcfs := run(FCFS)
	edf := run(EDF)
	if edf.DeadlinesMet <= fcfs.DeadlinesMet {
		t.Errorf("EDF met %d deadlines, FCFS %d; EDF should win", edf.DeadlinesMet, fcfs.DeadlinesMet)
	}
	// EDF completes the urgent q2 first.
	if edf.Requests[0].ID != label.Question(2) {
		t.Errorf("EDF first completion = %s, want q2", edf.Requests[0].ID)
	}
}

func TestServeIdleGapsDoNotBill(t *testing.T) {
	e := newOrinEngine(t, model.DSR1Qwen1_5B)
	// Two requests separated by a long idle gap.
	m, err := e.Serve([]TimedRequest{
		timed(0, 0, 64, 50, 0),
		timed(1, 1000, 64, 50, 0),
	}, 1, FCFS)
	if err != nil {
		t.Fatal(err)
	}
	// Both latencies small despite the 1000s wall span.
	for _, l := range m.Latencies {
		if l > 30 {
			t.Errorf("latency %.1fs includes the idle gap", l)
		}
	}
	if m.WallTime < 1000 {
		t.Errorf("wall time %.1f should span the idle gap", m.WallTime)
	}
}

func TestServeEnergyConservation(t *testing.T) {
	e := newOrinEngine(t, model.DSR1Qwen1_5B)
	var reqs []TimedRequest
	for i := 0; i < 10; i++ {
		reqs = append(reqs, timed(i, float64(i)*2, 64, 60+10*i, 0))
	}
	m, err := e.Serve(reqs, 4, FCFS)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, r := range m.Requests {
		sum += r.Energy()
	}
	if math.Abs(sum-m.TotalEnergy)/m.TotalEnergy > 1e-9 {
		t.Errorf("energy: per-request sum %.2f vs total %.2f", sum, m.TotalEnergy)
	}
	if st := e.CacheStats(); st.UsedBlocks != 0 {
		t.Errorf("leaked blocks: %+v", st)
	}
}

func TestServePercentilesOrdered(t *testing.T) {
	e := newOrinEngine(t, model.DSR1Qwen1_5B)
	var reqs []TimedRequest
	for i := 0; i < 30; i++ {
		reqs = append(reqs, timed(i, float64(i), 64, 40+5*i, 0))
	}
	m, err := e.Serve(reqs, 4, FCFS)
	if err != nil {
		t.Fatal(err)
	}
	if !(m.P50Latency <= m.P95Latency && m.P95Latency <= m.P99Latency) {
		t.Errorf("percentiles out of order: %v %v %v", m.P50Latency, m.P95Latency, m.P99Latency)
	}
	if m.MeanLatency <= 0 {
		t.Error("mean latency missing")
	}
}

// TestServeEdgeCases covers the serving loop's boundary conditions in
// one table: empty streams, hopeless deadlines, tie-breaking, and the
// degenerate batch sizes.
func TestServeEdgeCases(t *testing.T) {
	together := func(deadlines ...float64) []TimedRequest {
		reqs := make([]TimedRequest, len(deadlines))
		for i, d := range deadlines {
			reqs[i] = timed(i, 0, 64, 50, d)
		}
		return reqs
	}
	cases := []struct {
		name     string
		reqs     []TimedRequest
		maxBatch int
		policy   SchedPolicy
		check    func(t *testing.T, m ServeMetrics)
	}{
		{
			name: "empty workload", reqs: nil, maxBatch: 4, policy: FCFS,
			check: func(t *testing.T, m ServeMetrics) {
				if len(m.Requests) != 0 || len(m.Latencies) != 0 {
					t.Errorf("empty workload produced completions: %+v", m)
				}
				if m.WallTime != 0 || m.TotalEnergy != 0 {
					t.Errorf("empty workload billed time/energy: %+v", m)
				}
				if m.HitRate() != 1 {
					t.Errorf("empty workload hit rate = %v, want 1 (vacuous)", m.HitRate())
				}
			},
		},
		{
			name: "all deadlines missed", reqs: together(0.001, 0.001, 0.001), maxBatch: 2, policy: EDF,
			check: func(t *testing.T, m ServeMetrics) {
				if m.DeadlinesTotal != 3 || m.DeadlinesMet != 0 {
					t.Errorf("met %d of %d, want 0 of 3", m.DeadlinesMet, m.DeadlinesTotal)
				}
				if m.HitRate() != 0 {
					t.Errorf("hit rate = %v, want 0", m.HitRate())
				}
				if len(m.Requests) != 3 {
					t.Errorf("missed requests must still complete: %d of 3", len(m.Requests))
				}
			},
		},
		{
			name: "EDF ties on deadline keep arrival order", reqs: together(40, 40, 40), maxBatch: 1, policy: EDF,
			check: func(t *testing.T, m ServeMetrics) {
				for i, want := range []label.Label{label.Question(0), label.Question(1), label.Question(2)} {
					if m.Requests[i].ID != want {
						t.Errorf("completion %d = %s, want %s (stable sort on equal deadlines)", i, m.Requests[i].ID, want)
					}
				}
			},
		},
		{
			name: "EDF parks deadline-less requests last", reqs: together(0, 40, 0), maxBatch: 1, policy: EDF,
			check: func(t *testing.T, m ServeMetrics) {
				if m.Requests[0].ID != label.Question(1) {
					t.Errorf("first completion = %s, want the deadline-bearing q1", m.Requests[0].ID)
				}
				// The two deadline-less requests retain arrival order.
				if m.Requests[1].ID != label.Question(0) || m.Requests[2].ID != label.Question(2) {
					t.Errorf("deadline-less tail order %s, %s, want q0, q2", m.Requests[1].ID, m.Requests[2].ID)
				}
			},
		},
		{
			name: "FCFS ties on arrival keep input order", reqs: together(30, 0, 30), maxBatch: 1, policy: FCFS,
			check: func(t *testing.T, m ServeMetrics) {
				for i, want := range []label.Label{label.Question(0), label.Question(1), label.Question(2)} {
					if m.Requests[i].ID != want {
						t.Errorf("completion %d = %s, want %s", i, m.Requests[i].ID, want)
					}
				}
			},
		},
		{
			name: "maxBatch=1 serializes", reqs: together(0, 0, 0), maxBatch: 1, policy: FCFS,
			check: func(t *testing.T, m ServeMetrics) {
				// Strictly serial: each queue wait exceeds its predecessor's.
				for i := 1; i < len(m.Requests); i++ {
					if m.Requests[i].QueueTime <= m.Requests[i-1].QueueTime {
						t.Errorf("request %d queue %.3f not after %d's %.3f",
							i, m.Requests[i].QueueTime, i-1, m.Requests[i-1].QueueTime)
					}
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newOrinEngine(t, model.DSR1Qwen1_5B)
			m, err := e.Serve(tc.reqs, tc.maxBatch, tc.policy)
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, m)
			if st := e.CacheStats(); st.UsedBlocks != 0 {
				t.Errorf("leaked blocks: %+v", st)
			}
		})
	}
}

// TestServeAdmissionGrain pins the decode-chunk grain rule through the
// event count (one event per prefill and per decode chunk): a chunk is
// capped at admitGrain steps only while admission waits on it — a later
// arrival is pending, or a ready request has a free batch slot. A backlog
// behind a full batch decodes straight to the next completion, since
// chunk length moves DVFS power and energy.
func TestServeAdmissionGrain(t *testing.T) {
	cases := []struct {
		name     string
		reqs     []TimedRequest
		maxBatch int
		want     int
	}{
		{
			// 3 prefills + 3 whole-request decodes.
			name: "closed batch at batch 1 decodes to completion",
			reqs: []TimedRequest{
				timed(0, 0, 64, 100, 0), timed(1, 0, 64, 60, 0), timed(2, 0, 64, 40, 0),
			},
			maxBatch: 1, want: 6,
		},
		{
			// 3 prefills; decode 40 (a completes), then 60 (b and c).
			name: "backlog behind a full batch decodes to the next completion",
			reqs: []TimedRequest{
				timed(0, 0, 64, 40, 0), timed(1, 0, 64, 100, 0), timed(2, 0, 64, 60, 0),
			},
			maxBatch: 2, want: 5,
		},
		{
			// a: prefill + ceil(100/16) = 7 capped chunks while b is
			// pending; b: prefill + one uncapped 20-step chunk.
			name: "pending arrival caps chunks at the grain",
			reqs: []TimedRequest{
				timed(0, 0, 64, 100, 0), timed(1, 1000, 64, 20, 0),
			},
			maxBatch: 1, want: 10,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newOrinEngine(t, model.DSR1Qwen1_5B)
			m, err := e.Serve(tc.reqs, tc.maxBatch, FCFS)
			if err != nil {
				t.Fatal(err)
			}
			if m.Served != len(tc.reqs) {
				t.Fatalf("served %d of %d", m.Served, len(tc.reqs))
			}
			if m.Events != tc.want {
				t.Errorf("events = %d, want %d", m.Events, tc.want)
			}
		})
	}
}

// TestRunMatchesServeAtClock pins Run as the scheduler over a closed
// batch: over seeds 1–8 of random prompt and output lengths and every
// batch size from 1 to 16, the same requests all arriving at the clock,
// served FCFS, produce identical per-request metrics, wall time, energy,
// token count and KV peak.
func TestRunMatchesServeAtClock(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0xc10c))
		var reqs []Request
		var timedReqs []TimedRequest
		for i := 1 + rng.IntN(24); i > 0; i-- {
			r := Request{ID: label.Question(len(reqs)), PromptTokens: 1 + rng.IntN(1024), OutputTokens: 1 + rng.IntN(1024)}
			reqs = append(reqs, r)
			timedReqs = append(timedReqs, TimedRequest{Request: r})
		}
		for maxBatch := 1; maxBatch <= 16; maxBatch++ {
			run, err := newOrinEngine(t, model.DSR1Llama8B).Run(reqs, maxBatch)
			if err != nil {
				t.Fatal(err)
			}
			serve, err := newOrinEngine(t, model.DSR1Llama8B).Serve(timedReqs, maxBatch, FCFS)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(run.Requests, serve.Requests) || run.WallTime != serve.WallTime ||
				run.TotalEnergy != serve.TotalEnergy || run.TotalTokens != serve.TotalTokens ||
				run.PeakKVBlocks != serve.PeakKVBlocks {
				t.Fatalf("seed %d maxBatch %d: Run and Serve at the clock disagree:\nrun   %+v\nserve %+v",
					seed, maxBatch, run, serve.BatchMetrics)
			}
		}
	}
}

// TestOversizedErrorCarriesTokens pins the one KV-capacity error shared
// by every entry point: it names the request and its token demand.
func TestOversizedErrorCarriesTokens(t *testing.T) {
	e := newOrinEngine(t, model.DSR1Qwen14B)
	total := e.CacheStats().TotalBlocks * 16
	want := fmt.Sprintf(`engine: request "q0" (%d tokens) exceeds KV capacity even alone`, 2*total)
	_, errServe := e.Serve([]TimedRequest{timed(0, 0, total, total, 0)}, 1, FCFS)
	_, errRun := e.Run([]Request{{ID: label.Question(0), PromptTokens: total, OutputTokens: total}}, 1)
	for _, err := range []error{errServe, errRun} {
		if err == nil || err.Error() != want {
			t.Errorf("error = %v, want %q", err, want)
		}
	}
}

// TestServeMaxBatchZeroClampsToOne pins the documented clamp: a
// non-positive maxBatch degenerates to serial batch-1 serving.
func TestServeMaxBatchZeroClampsToOne(t *testing.T) {
	build := func() []TimedRequest {
		return []TimedRequest{
			timed(0, 0, 64, 60, 0),
			timed(1, 0, 64, 60, 0),
		}
	}
	e0 := newOrinEngine(t, model.DSR1Qwen1_5B)
	m0, err := e0.Serve(build(), 0, FCFS)
	if err != nil {
		t.Fatal(err)
	}
	e1 := newOrinEngine(t, model.DSR1Qwen1_5B)
	m1, err := e1.Serve(build(), 1, FCFS)
	if err != nil {
		t.Fatal(err)
	}
	if m0.WallTime != m1.WallTime || m0.TotalEnergy != m1.TotalEnergy {
		t.Errorf("maxBatch=0 (wall %.4f, energy %.2f) differs from maxBatch=1 (wall %.4f, energy %.2f)",
			m0.WallTime, m0.TotalEnergy, m1.WallTime, m1.TotalEnergy)
	}
}

func TestSchedPolicyString(t *testing.T) {
	if FCFS.String() != "FCFS" || EDF.String() != "EDF" {
		t.Error("policy names wrong")
	}
}
