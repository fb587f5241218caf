package engine

import (
	"fmt"
	"math"
	"sort"
)

// TimedRequest is a request with an arrival time and an optional absolute
// deadline, for open-loop serving studies (QPS sweeps, SLA audits).
// Session-grade workloads additionally carry token identities and a
// session tag; plain open-loop streams leave them zero.
type TimedRequest struct {
	Request
	Arrival  float64 // seconds on the simulated clock
	Deadline float64 // absolute seconds; 0 means no deadline
	// SessionID groups the turns of one multi-turn conversation; routing
	// policies with session affinity key on it ("" means sessionless).
	SessionID string
	// PromptSyms are per-token content identities for the prompt (the
	// simulator's stand-in for token IDs). When the engine has a prefix
	// cache and len(PromptSyms) >= PromptTokens, admission matches the
	// longest cached prefix and prefills only the unmatched suffix.
	PromptSyms []uint64
	// OutputSyms identify the generated tokens (the workload generator
	// decides output lengths ahead of execution, so it knows them). They
	// let a finished sequence's full prompt+output history be retained
	// for the session's next turn.
	OutputSyms []uint64
}

// SchedPolicy selects the ready-queue discipline.
type SchedPolicy int

const (
	// FCFS admits in arrival order.
	FCFS SchedPolicy = iota
	// EDF admits earliest-deadline-first (deadline-less requests last).
	EDF
)

// String names the policy.
func (p SchedPolicy) String() string {
	if p == EDF {
		return "EDF"
	}
	return "FCFS"
}

// ServeMetrics extends BatchMetrics with latency percentiles, deadline
// accounting, and prefix-cache accounting over an open-loop run.
type ServeMetrics struct {
	BatchMetrics
	P50Latency     float64
	P95Latency     float64
	P99Latency     float64
	MeanLatency    float64
	DeadlinesMet   int
	DeadlinesTotal int
	// Served counts completed requests. It equals len(Latencies) and — in
	// full-metrics mode — len(Requests), but survives LeanMetrics.
	Served int
	// Events counts clock-advancing simulation events (prefills and
	// decode chunks) — the unit soak throughput is reported in.
	Events int
	// Latencies holds per-request (finish − arrival), in completion order.
	Latencies []float64
	// PrefixLookups counts admissions that consulted the prefix cache;
	// PrefixHits those that matched at least one block;
	// PrefixLookupTokens sums the prompt tokens of consulted admissions.
	// All stay zero without a prefix cache or without PromptSyms on the
	// requests.
	PrefixLookups      int
	PrefixHits         int
	PrefixLookupTokens int
	// SavedPrefillTokens is the prefill work the prefix cache avoided.
	SavedPrefillTokens int
	// HostHits counts admissions whose matched prefix included
	// host-resident blocks (promoted on acquire); RestoreSeconds is the
	// host-link transfer time those promotions charged. Both stay zero
	// without a host tier.
	HostHits       int
	RestoreSeconds float64
}

// PrefixHitRate is the token-weighted cache hit rate — saved prefill
// tokens over prompt tokens that consulted the cache (the convention
// vLLM and SGLang report) — or 0 when the cache was never consulted.
func (s ServeMetrics) PrefixHitRate() float64 {
	if s.PrefixLookupTokens == 0 {
		return 0
	}
	return float64(s.SavedPrefillTokens) / float64(s.PrefixLookupTokens)
}

// HitRate returns the fraction of deadline-bearing requests that met
// their deadline (1.0 when none carry deadlines).
func (s ServeMetrics) HitRate() float64 {
	if s.DeadlinesTotal == 0 {
		return 1
	}
	return float64(s.DeadlinesMet) / float64(s.DeadlinesTotal)
}

// ServeOpts tunes a streaming serve run.
type ServeOpts struct {
	// LeanMetrics drops per-request Metrics retention (ServeMetrics.
	// Requests stays nil) so a million-request soak holds O(active)
	// request state; latencies are still recorded for percentiles.
	LeanMetrics bool
	// SizeHint, when positive, pre-sizes the result slices for an
	// expected request count (the slice-API wrapper passes len(reqs)).
	SizeHint int
	// Faults injects replica-level fault behavior into this run: stall
	// windows (the device makes no progress), thermal-throttle windows
	// (decode time stretched by a factor), and crashes. Nil serves
	// undisturbed — the default path is byte-identical with the field
	// unset.
	Faults *FaultInjection
}

// FaultInjection is the per-run fault timeline a serving layer hands the
// engine: the engine applies the timing effects and executes the
// crashes, while retry decisions stay with the caller, which learns what
// each crash destroyed from Serving.Aborted.
type FaultInjection struct {
	// Stalls are no-progress windows: a prefill or decode event that
	// would start inside [From, To) starts at To instead. Events are
	// atomic — one that starts before a window runs to completion.
	Stalls []StallWindow
	// Throttles stretch decode-chunk time by Factor for chunks starting
	// inside the window — a thermal cap. Energy is unchanged: the same
	// tokens cost the same joules, spread over more seconds.
	Throttles []ThrottleWindow
	// Crashes are power losses, in ascending At order. A crash aborts
	// everything the engine holds at its instant — the active set and
	// every offer not yet admitted — and wipes the
	// prefix index. No prefill or decode event straddles a crash: work
	// in progress stops at the instant, and the service each aborted
	// request had received is reported as lost. An open run executes a
	// crash once advanced to its instant, so a caller must not offer
	// past a crash it has not advanced to.
	Crashes []float64
	// KeepHost models persistent host DRAM: fully host-resident prefix
	// chains survive every crash's wipe.
	KeepHost bool
}

// StallWindow is one no-progress interval [From, To).
type StallWindow struct{ From, To float64 }

// ThrottleWindow is one decode-slowdown interval [From, To) with its
// time multiplier (>= 1).
type ThrottleWindow struct {
	From, To float64
	Factor   float64
}

// StallEnd returns when work that would start at t can actually begin:
// past every stall window containing it (windows may chain or overlap).
//
//edgereasoning:hotpath bench=BenchmarkServeHotLoop
func (f *FaultInjection) StallEnd(t float64) float64 {
	for changed := true; changed; {
		changed = false
		for _, w := range f.Stalls {
			if t >= w.From && t < w.To {
				t = w.To
				changed = true
			}
		}
	}
	return t
}

// ThrottleAt returns the decode-time multiplier at t (1 outside all
// windows; overlapping windows compound).
//
//edgereasoning:hotpath bench=BenchmarkServeHotLoop
func (f *FaultInjection) ThrottleAt(t float64) float64 {
	m := 1.0
	for _, w := range f.Throttles {
		if t >= w.From && t < w.To && w.Factor > 1 {
			m *= w.Factor
		}
	}
	return m
}

// FinishAfter integrates work seconds of full-speed service starting at
// t across the fault windows: no progress inside a stall window, Factor×
// slower inside a throttle window, full speed outside. It is the
// continuous counterpart of the scheduler's per-event stall and stretch
// — a flat whole-service stretch would overshoot badly for work that
// merely grazes a window.
func (f *FaultInjection) FinishAfter(t, work float64) float64 {
	for work > 0 {
		t = f.StallEnd(t)
		m := f.ThrottleAt(t)
		// Advance to the next window boundary after t; the multiplier is
		// constant, and the device unstalled, until then.
		next := math.Inf(1)
		for _, w := range f.Stalls {
			if w.From > t && w.From < next {
				next = w.From
			}
		}
		for _, w := range f.Throttles {
			if w.From > t && w.From < next {
				next = w.From
			}
			if w.To > t && w.To < next {
				next = w.To
			}
		}
		if math.IsInf(next, 1) || t+work*m <= next {
			return t + work*m
		}
		work -= (next - t) / m
		t = next
	}
	return t
}

// Serve executes an open-loop workload: requests become visible at their
// arrival times, are admitted per the scheduling policy up to maxBatch
// concurrent decoders, and complete under the same scheduler loop as
// Run. The engine clock must be at or before the earliest
// arrival. It is a thin collector over ServeSource; results are
// element-identical to the historical slice implementation.
func (e *Engine) Serve(reqs []TimedRequest, maxBatch int, policy SchedPolicy) (ServeMetrics, error) {
	pending := make([]TimedRequest, len(reqs))
	copy(pending, reqs)
	sort.SliceStable(pending, func(i, j int) bool { return pending[i].Arrival < pending[j].Arrival })
	return e.ServeSource(NewSliceSource(pending), maxBatch, policy, ServeOpts{SizeHint: len(reqs)})
}

// ServeSource is the streaming serve loop: requests are pulled from src
// (non-decreasing Arrival order) and offered at their arrivals as the
// loop reaches them, so live memory scales with the in-flight set —
// the admission backlog plus maxBatch active decoders — not the stream
// length.
// It runs the engine's one scheduler loop (see scheduler) and adds
// latency percentiles.
func (e *Engine) ServeSource(src Source, maxBatch int, policy SchedPolicy, opts ServeOpts) (ServeMetrics, error) {
	s := e.newScheduler(maxBatch, policy, opts, false)
	for first := true; ; first = false {
		tr, ok := src.Next()
		if !ok {
			break
		}
		if first && e.clock > tr.Arrival {
			return ServeMetrics{}, fmt.Errorf("engine: clock %.3f already past first arrival %.3f", e.clock, tr.Arrival)
		}
		if err := s.AdvanceTo(tr.Arrival); err != nil {
			return s.out, err
		}
		s.Offer(tr, tr.Arrival)
	}
	return s.Close()
}

// Serving is an open serve run: the scheduler loop ServeSource drives,
// handed to a caller that interleaves it with other state — a fleet
// dispatcher advancing each replica only to the instants it needs.
// Offer requests at non-decreasing instants, AdvanceTo before reading
// the engine at a time, collect crash aborts with Aborted, and Close to
// drain and collect the metrics. Offering each request at its arrival
// after advancing to it reproduces ServeSource exactly; advancing past
// the last offer before Close does not (see AdvanceTo).
type Serving struct{ scheduler }

// Abort is one request a crash destroyed: the request as offered (its
// Arrival the true arrival), the instant it was offered, and the service
// seconds it had received — restore, prefill and decode, up to the crash.
type Abort struct {
	TimedRequest
	OfferedAt float64
	Lost      float64
}

// Open starts a serve run at the engine's clock.
func (e *Engine) Open(maxBatch int, policy SchedPolicy, opts ServeOpts) *Serving {
	return &Serving{e.newScheduler(maxBatch, policy, opts, false)}
}

// CalibrationRates returns the engine's per-token prefill and decode
// rates at the reference geometry (256-token prompt, 128-step decode at
// context 256) without touching the clock or the cache — the same
// numbers a one-request probe run produces, at zero allocation. The
// fleet's router uses them to estimate service times for shed decisions.
func (e *Engine) CalibrationRates() (prefillPerTok, decodePerTok float64) {
	p := e.prefill(256)
	d := e.decodeChunk([]int{256}, 128)
	return p.Time / 256, d.Time / 128
}
