package engine

import (
	"fmt"
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
	// Attempt counts the dispatches of this request that crashes
	// destroyed before this one. The engine carries it untouched and
	// returns it in Abort; a fleet's retry reads it there.
	Attempt int
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

// ServeCounters are the additive counters of a serve run: one engine's
// run reports them in ServeMetrics, and a fleet's total is the Add of its
// replicas' runs.
type ServeCounters struct {
	// Served counts completed requests. In one engine's run it equals
	// len(Latencies) and, when Requests is kept, len(Requests); it is
	// the count to read when Requests is nil.
	Served int
	// BusyTime sums each completed request's service time (restore +
	// prefill + decode), added in completion order as requests finish,
	// so it needs no retained Requests. Batched decode counts overlap
	// once per request, so compare it across replicas, not against wall
	// time.
	BusyTime float64
	// Events counts clock-advancing simulation events (prefills and
	// decode chunks) — the unit soak throughput is reported in.
	Events int
	// DeadlinesTotal counts served requests that carry a deadline;
	// DeadlinesMet those that finished by it.
	DeadlinesMet   int
	DeadlinesTotal int
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

// Add adds one run's counters into the total c.
func (c *ServeCounters) Add(o ServeCounters) {
	c.Served += o.Served
	c.BusyTime += o.BusyTime
	c.Events += o.Events
	c.DeadlinesMet += o.DeadlinesMet
	c.DeadlinesTotal += o.DeadlinesTotal
	c.PrefixLookups += o.PrefixLookups
	c.PrefixHits += o.PrefixHits
	c.PrefixLookupTokens += o.PrefixLookupTokens
	c.SavedPrefillTokens += o.SavedPrefillTokens
	c.HostHits += o.HostHits
	c.RestoreSeconds += o.RestoreSeconds
}

// PrefixHitRate is the token-weighted cache hit rate — saved prefill
// tokens over prompt tokens that consulted the cache (the convention
// vLLM and SGLang report) — or 0 when the cache was never consulted.
func (c ServeCounters) PrefixHitRate() float64 {
	if c.PrefixLookupTokens == 0 {
		return 0
	}
	return float64(c.SavedPrefillTokens) / float64(c.PrefixLookupTokens)
}

// HitRate returns the fraction of deadline-bearing requests that met
// their deadline (1.0 when none carry deadlines).
func (c ServeCounters) HitRate() float64 {
	if c.DeadlinesTotal == 0 {
		return 1
	}
	return float64(c.DeadlinesMet) / float64(c.DeadlinesTotal)
}

// ServeMetrics extends BatchMetrics with latency percentiles and the
// serve counters (deadline and prefix-cache accounting) over an
// open-loop run.
type ServeMetrics struct {
	BatchMetrics
	ServeCounters
	P50Latency  float64
	P95Latency  float64
	P99Latency  float64
	MeanLatency float64
	// Latencies holds per-request (finish − arrival), in completion order.
	Latencies []float64
}

// ServeOpts tunes a streaming serve run.
type ServeOpts struct {
	// LeanMetrics drops per-request Metrics retention (ServeMetrics.
	// Requests stays nil) so a million-request soak holds O(active)
	// request state plus one latency per finished request. Served and
	// BusyTime are counted either way; latencies are still recorded for
	// percentiles. Fleet replicas run lean unless fleet.Config.
	// KeepRequests is set.
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
