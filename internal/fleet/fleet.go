// Package fleet simulates serving one open-loop request stream across a
// pool of heterogeneous replica engines — mixed device profiles (AGX
// Orin power modes, server parts) and mixed weight formats (FP16 and
// W4A16). A deterministic router assigns each arriving request to a
// replica under a pluggable Policy, and each replica's engine runs in
// lockstep with dispatch: the request is offered to the replica's open
// serve run (engine.Serving) the moment it is routed, and an engine is
// advanced to the instants that need its state — a dispatch to it, a
// tiered warmth read, a crash on it. Per-replica results are folded
// into fleet-wide Metrics once dispatch ends and every run is closed:
// the fleet's counters are the replicas' engine.ServeCounters added in
// replica order, beside the fleet's own drop, crash and autoscale
// ledger.
// An advance commits (see engine.Serving): a replica read or crashed
// after its last dispatch caps its decode chunks at the admission grain
// up to that instant, so its results match a standalone run advanced
// there before closing, not one closed at its last dispatch.
//
// The router works on calibrated estimates (a batch-1 probe of each
// replica's prefill and decode rates) for capacity and completion,
// mirroring a real load balancer that routes on cheap health signals
// rather than ground truth. Reading them changes nothing; only a
// dispatch drops finished ones. A crash-aborted retry carries its own
// attempt count (engine.TimedRequest.Attempt), so request IDs are only
// labels. Admission is a shared ingress
// queue with per-replica capacity and a pluggable discipline
// (Config.Admission): the default FIFO blocks the stream head when every
// routable replica is at capacity, while EDF and SJF reorder the waiting
// set and Shed drops hopeless deadline work instead of serving it late.
// An optional autoscaler (Config.Autoscale) grows and shrinks the
// replica pool on ingress pressure, paying modeled cold starts.
package fleet

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"edgereasoning/internal/engine"
	"edgereasoning/internal/faults"
	"edgereasoning/internal/hw"
	"edgereasoning/internal/model"
	"edgereasoning/internal/stats"
	"edgereasoning/internal/telemetry"
)

// maxBatch bounds concurrent decoders on each replica.
const maxBatch = 4

// ReplicaConfig describes one engine in the fleet. Every replica may
// park at most 16 outstanding (queued + executing) requests, and a
// configured replica is warm at t=0; only the autoscaler provisions
// replicas that warm up later.
type ReplicaConfig struct {
	// Name labels the replica in metrics (default "r<i>-<device>").
	Name   string
	Spec   model.Spec
	Device *hw.Device
	// capacity bounds outstanding (queued + executing) requests the
	// router may park on the replica (default 16).
	capacity int
	// warmupDelay keeps the replica unroutable before this simulated
	// time — a cold start loading weights. Zero means warm at t=0. A
	// replica whose permanent crash (a Config.Faults crash with no
	// restart) lands at or before warmupDelay is dead at birth: there is
	// no instant at which it can take a request, even when the two are
	// exactly equal. The autoscaler's warm-up accounting relies on this
	// boundary.
	warmupDelay float64
}

func (rc ReplicaConfig) withDefaults(i int) ReplicaConfig {
	if rc.capacity <= 0 {
		rc.capacity = 16
	}
	if rc.Name == "" && rc.Device != nil {
		rc.Name = fmt.Sprintf("r%d-%s", i, rc.Device.Name)
	}
	return rc
}

// Config assembles a fleet.
type Config struct {
	Replicas []ReplicaConfig
	Policy   Policy
	// Admission selects the ingress-queue discipline. The zero value
	// (FIFO) preserves the historical head-of-line-blocking behavior.
	Admission Admission
	// Autoscale, when non-nil, lets the pool grow and shrink between
	// the configured bounds on ingress pressure. Nil keeps the replica
	// set fixed.
	Autoscale *AutoscaleConfig
	// PrefixCache builds every replica engine with a cross-request prefix
	// KV cache, so session-tagged streams reuse their history on whichever
	// replica holds it (see Policy SessionAffinity).
	PrefixCache bool
	// DeviceBlocks caps every replica's device KV cache (engine.Config.
	// DeviceBlocks); zero keeps the DRAM-derived size.
	DeviceBlocks int
	// HostTierBlocks attaches a host-DRAM second tier of that many blocks
	// to every replica's prefix index (requires PrefixCache); with the
	// tier on, SessionAffinity ranks a displaced session's re-pin
	// candidates by how much of its history each holds live — the
	// longest resident prefix across device and host wins, device
	// residency breaking ties, and a cold replica ranks last.
	HostTierBlocks int
	// HostLinkBandwidth prices tier promotions in bytes/second (default
	// kvcache.DefaultHostLinkBandwidth).
	HostLinkBandwidth float64
	// Faults, when non-nil, injects the schedule's crashes, stalls, and
	// throttles into the configured replicas (autoscaler provisions are
	// fault-free). See package faults for semantics.
	Faults *faults.Schedule
	// Retry, when non-nil, re-admits crash-aborted requests through the
	// shared ingress under the policy's attempt/backoff/deadline bounds.
	// Nil drops aborted work — the no-recovery baseline.
	Retry *RetryPolicy
	// Health, when non-nil, enables health-aware routing: per-replica
	// consecutive-failure circuit breakers with half-open probes, and
	// stall-window avoidance. Nil routes blind.
	Health *HealthConfig
	// Trace, when non-nil, records the run's telemetry into it: one span
	// track per replica (request phases from the engines), shared ingress
	// and faults tracks from the dispatch loop, and sampled fleet series.
	// Nil is the default and keeps the run byte-identical to untraced.
	Trace *telemetry.Trace
	// KeepRequests retains each replica's per-request engine.Metrics
	// records in ReplicaMetrics.Requests. Off by default: a replica then
	// holds its in-flight requests plus one latency per finished request,
	// and Requests is nil. Every other result is the same either way.
	KeepRequests bool
}

// ReplicaMetrics reports one replica's share of the run.
type ReplicaMetrics struct {
	Name   string
	Device string
	Model  string
	// ServeMetrics is the replica's engine run; its Served counts the
	// requests routed to the replica and not aborted there by a crash,
	// and its BusyTime their summed service time. Requests is nil unless
	// Config.KeepRequests is set.
	engine.ServeMetrics
	// Crashes counts crash events that struck this replica.
	Crashes int
	// ProvisionedAt is when the replica joined the pool (0 for the
	// initial set); RetiredAt is when the autoscaler drained it out
	// (0 when it stayed in the pool to the end).
	ProvisionedAt float64
	RetiredAt     float64
}

// Metrics aggregates a fleet run.
type Metrics struct {
	Policy   Policy
	Replicas []ReplicaMetrics
	// ServeCounters is the sum of the replicas' counters (Served,
	// BusyTime, Events, deadline and prefix-cache accounting), in replica
	// order, except that DeadlinesTotal also counts each dropped
	// deadline-bearing request, as a missed deadline.
	engine.ServeCounters
	// Offered counts every request that entered the fleet's ingress;
	// conservation holds as Served + Dropped == Offered on every run.
	Offered int
	// Dropped counts requests that never reached a replica — either no
	// replica could ever take them (all failed or never warm) or the
	// Shed admission discipline dropped them as hopeless. Shed is the
	// subset of Dropped removed by deadline shedding.
	Dropped int
	Shed    int
	// Fleet-wide latency distribution over all completions.
	P50Latency  float64
	P95Latency  float64
	P99Latency  float64
	MeanLatency float64
	TotalEnergy float64 // joules across the fleet
	// WallTime is the last completion time on any replica.
	WallTime float64
	// Imbalance is the coefficient of variation of per-replica BusyTime:
	// 0 is a perfectly even spread, higher means hot spots.
	Imbalance float64
	// Autoscale accounting (zero without Config.Autoscale). ScaleEvents
	// is the pool-change log in time order; PeakReplicas the largest
	// live pool; ReplicaSeconds sums each replica's provisioned span
	// (provision to retirement, failure, or wall), the elastic pool's
	// resource bill for equal-cost comparisons against fixed pools.
	ScaleEvents    []ScaleEvent
	ScaleUps       int
	ScaleDowns     int
	PeakReplicas   int
	ReplicaSeconds float64
	// Host-tier demote/promote traffic summed over replicas (zero
	// without Config.HostTierBlocks).
	TierDemotions  int
	TierPromotions int
	// Fault-injection and recovery accounting (zero without
	// Config.Faults). Crashes counts crash events striking the
	// pool; Aborted the dispatches they destroyed — whatever the struck
	// engine held at the crash instant (a request aborted twice counts
	// twice); Retried the aborts scheduled for re-admission;
	// AbortedDropped — a subset of Dropped, like Shed — the aborts
	// abandoned for good (retry disabled, attempts exhausted, no deadline
	// budget left, or a permanent outage drained the retry queue);
	// LostWorkSeconds the service seconds the aborted requests had
	// received, up to the crash; BreakerOpens the circuit-breaker opens
	// under health-aware routing. Conservation still holds as
	// Served + Dropped == Offered: retries are not re-offered, and every
	// abort either completes a later attempt or lands in Dropped once.
	Crashes         int
	Aborted         int
	Retried         int
	AbortedDropped  int
	LostWorkSeconds float64
	BreakerOpens    int
}

// drop records a request that leaves the fleet unserved; a
// deadline-bearing one counts as a missed deadline.
func (m *Metrics) drop(tr engine.TimedRequest) {
	m.Dropped++
	if tr.Deadline > 0 {
		m.DeadlinesTotal++
	}
}

// replica is the router-side state for one engine and its open serve
// run.
type replica struct {
	cfg ReplicaConfig
	eng *engine.Engine
	sv  *engine.Serving
	// err is the run's first engine error; it stops further advances and
	// surfaces when the run is closed.
	err error
	// Calibrated batch-1 rates from the warm-up probe.
	prefillPerTok float64
	decodePerTok  float64
	// finishes holds estimated completion times of outstanding requests,
	// sorted ascending; estFreeAt is the serial-backlog horizon.
	finishes  []float64
	estFreeAt float64
	wrrCredit float64
	// Autoscaler lifecycle: provisionedAt is when the replica joined the
	// pool; retired marks an autoscaler drain at retiredAt.
	provisionedAt float64
	retired       bool
	retiredAt     float64
	// Fault machinery, nil on fault-free replicas: tl is the compiled
	// fault timeline and hs the circuit-breaker state.
	tl *timeline
	hs *healthState
	// crashes counts crash events that struck this replica (folded into
	// ReplicaMetrics.Crashes).
	crashes int
}

// newReplica builds the serving engine for one replica config under the
// fleet's cache, tracing and admission settings — the initial pool and
// autoscaler provisions alike — opens its serve run with the replica's
// fault timeline (nil when fault-free), and calibrates the router's
// service-time estimate from the engine's own kernel model.
// CalibrationRates is pure — the clock and cache are untouched — and
// returns exactly what the historical one-request probe run on a scratch
// engine measured, without constructing one.
func newReplica(rc ReplicaConfig, fc Config, tl *timeline) (*replica, error) {
	engCfg := engine.Config{
		Spec: rc.Spec, Device: rc.Device, PrefixCache: fc.PrefixCache,
		DeviceBlocks: fc.DeviceBlocks, HostTierBlocks: fc.HostTierBlocks,
		HostLinkBandwidth: fc.HostLinkBandwidth,
	}
	if fc.Trace != nil {
		engCfg.Trace = fc.Trace.Track(rc.Name)
	}
	eng, err := engine.New(engCfg)
	if err != nil {
		return nil, fmt.Errorf("fleet: replica %s: %w", rc.Name, err)
	}
	opts := engine.ServeOpts{LeanMetrics: !fc.KeepRequests}
	if tl != nil {
		opts.Faults = &tl.fx
	}
	prefillPerTok, decodePerTok := eng.CalibrationRates()
	return &replica{
		cfg:           rc,
		eng:           eng,
		sv:            eng.Open(maxBatch, fc.Admission.localDiscipline(fc.Policy), opts),
		prefillPerTok: prefillPerTok,
		decodePerTok:  decodePerTok,
		tl:            tl,
		// finishes tracks at most capacity outstanding estimates;
		// reserving that up front keeps every take allocation-free.
		finishes: make([]float64, 0, rc.capacity),
	}, nil
}

// advance runs the replica's engine up to t, unless it has already
// failed.
func (r *replica) advance(t float64) {
	if r.err == nil {
		r.err = r.sv.AdvanceTo(t)
	}
}

// estService estimates the batch-1 service time of a request.
func (r *replica) estService(tr engine.TimedRequest) float64 {
	return r.prefillPerTok*float64(tr.PromptTokens) + r.decodePerTok*float64(tr.OutputTokens)
}

// finishEstimate estimates the completion time of tr started at start —
// but only under health-aware routing (r.hs != nil) does the estimate
// integrate the replica's stall and thermal-throttle windows, so the
// router reads the device's health and thermal state and steers
// deadline-critical work away from a replica about to freeze or slow
// down. A blind fleet estimates full speed and eats the freeze and the
// stretch on the engine. This is a routing signal only: the recorded
// dispatch estimates (estFreeAt, finishes) stay unstretched, so capacity
// accounting is identical across health-aware and blind legs of the
// same schedule.
func (r *replica) finishEstimate(tr engine.TimedRequest, start float64) float64 {
	svc := r.estService(tr)
	if r.hs != nil && r.tl != nil {
		return r.tl.ix.FinishAfter(start, svc)
	}
	return start + svc
}

// speed is the router's weight for latency-weighted spreading: estimated
// throughput on a reference interactive request.
func (r *replica) speed() float64 {
	ref := engine.TimedRequest{Request: engine.Request{PromptTokens: 180, OutputTokens: 40}}
	if s := r.estService(ref); s > 0 {
		return 1 / s
	}
	return 0
}

// routableAt reports whether the router may hand the replica a request
// at time t: availAt finds nothing to wait for. Capacity is checked
// separately.
func (r *replica) routableAt(t float64) bool {
	at, never := r.availAt(t)
	return !never && at == t
}

// availAt returns the earliest instant >= t at which the replica is
// routable — warm, live (see liveAt), not down awaiting a crash restart
// and not breaker-blocked — or never=true when no such instant exists.
// Under health-aware routing a replica inside a stall window is not
// routable either: the health layer detects the stall and steers around
// it, while a blind fleet keeps dispatching into it and pays the freeze
// on the engine. Capacity is not considered.
func (r *replica) availAt(t float64) (float64, bool) {
	for {
		if !r.liveAt(t) {
			return 0, true
		}
		if t < r.cfg.warmupDelay {
			t = r.cfg.warmupDelay
			continue
		}
		if r.tl != nil {
			// The end of the crash-down chain holding t; a chain that ends
			// at +Inf holds a permanent crash, so liveAt stops there.
			if until := r.tl.down.End(t); until > t {
				t = until
				continue
			}
		}
		if r.hs != nil {
			if blocked, until := r.hs.blockedAt(t); blocked {
				t = until
				continue
			}
			if r.tl != nil {
				if end := r.tl.ix.StallEnd(t); end > t {
					t = end
					continue
				}
			}
		}
		return t, false
	}
}

// liveAt reports whether the replica counts toward the live pool at t:
// not retired, and not crash-dead — a replica whose permanent crash lands
// at or before the end of its warm-up is dead at birth and never counts.
// A replica down awaiting a crash restart still counts: it holds pool
// resources and will return.
func (r *replica) liveAt(t float64) bool {
	if r.retired {
		return false
	}
	if r.tl != nil && !math.IsInf(r.tl.deadAt, 1) {
		if t >= r.tl.deadAt {
			return false
		}
		if r.cfg.warmupDelay >= r.tl.deadAt {
			return false
		}
	}
	return true
}

// outstanding counts the estimates still unfinished at t. Like every
// router read it changes nothing, so dispatch may read a replica at an
// instant and then re-route from an earlier one.
func (r *replica) outstanding(t float64) int {
	return len(r.finishes) - r.completed(t)
}

// completed counts the outstanding estimates finished by t, which lead
// finishes.
func (r *replica) completed(t float64) int {
	return sort.Search(len(r.finishes), func(k int) bool { return r.finishes[k] > t })
}

// take records the dispatch of tr at time t and offers it to the
// replica's engine, advanced to t first. Estimates finished by t are
// dropped here, since the dispatch clock never goes back past a
// dispatch, and compacted in place so the preallocated array is kept.
func (r *replica) take(tr engine.TimedRequest, t float64) {
	if done := r.completed(t); done > 0 {
		r.finishes = r.finishes[:copy(r.finishes, r.finishes[done:])]
	}
	est := math.Max(r.estFreeAt, t) + r.estService(tr)
	r.estFreeAt = est
	// finishes stays ascending without a sorted insert: estFreeAt never
	// decreases between crashes, and a crash empties finishes.
	r.finishes = append(r.finishes, est)
	r.advance(t)
	r.sv.Offer(tr, t)
	if r.hs != nil {
		r.hs.noteTake(t, est)
	}
}

// Serve routes the open-loop stream across the fleet and serves it on
// the replica engines. Requests must not predate t=0; the input slice
// is not modified. It is a thin collector over ServeSource.
func Serve(cfg Config, reqs []engine.TimedRequest) (Metrics, error) {
	stream := make([]engine.TimedRequest, len(reqs))
	copy(stream, reqs)
	sort.SliceStable(stream, func(i, j int) bool { return stream[i].Arrival < stream[j].Arrival })
	return ServeSource(cfg, engine.NewSliceSource(stream))
}

// ServeSource routes a pull-based stream (non-decreasing Arrival order,
// not predating t=0) across the fleet: the ingress consumes the source
// lazily as the dispatch clock reaches each arrival, and each replica's
// engine serves what it is dispatched as dispatch proceeds, so live
// memory scales with the waiting and in-flight sets, not the stream
// length.
func ServeSource(cfg Config, src engine.Source) (Metrics, error) {
	if len(cfg.Replicas) == 0 {
		return Metrics{}, fmt.Errorf("fleet: no replicas configured")
	}
	// The fleet tracer registers the shared ingress and faults tracks
	// before the replica constructors register theirs, fixing the export
	// layout; nil when tracing is off.
	ft := newFleetTracer(cfg.Trace)
	tls, err := compileFaults(cfg)
	if err != nil {
		return Metrics{}, err
	}
	replicas := make([]*replica, len(cfg.Replicas))
	for i, rc := range cfg.Replicas {
		r, err := newReplica(rc.withDefaults(i), cfg, tls[i])
		if err != nil {
			return Metrics{}, err
		}
		replicas[i] = r
	}
	as, err := newAutoscaler(cfg.Autoscale, len(replicas), cfg)
	if err != nil {
		return Metrics{}, err
	}

	stream := engine.NewPeekable(src)
	if tr, ok := stream.Peek(); ok && tr.Arrival < 0 {
		return Metrics{}, fmt.Errorf("fleet: request %q arrives at negative time %.3f", tr.ID, tr.Arrival)
	}

	var out Metrics
	out.Policy = cfg.Policy
	router := &router{replicas: replicas, policy: cfg.Policy, tiered: cfg.HostTierBlocks > 0}
	if ft != nil {
		ft.faultWindows(replicas)
	}
	cx := &chaos{ro: router, retry: cfg.Retry, out: &out, ft: ft}
	if cfg.Health != nil {
		h := cfg.Health.withDefaults()
		if err := h.validate(); err != nil {
			return Metrics{}, err
		}
		for _, r := range replicas {
			r.hs = &healthState{cfg: h}
		}
	}
	if err := dispatch(router, as, cx, ft, cfg.Admission, stream, &out); err != nil {
		return out, err
	}
	replicas = router.replicas // the autoscaler may have grown the pool

	// Dispatch is over: close every run, draining what each engine still
	// holds, and fold the results in replica order. Every request routed
	// to a replica and not aborted there is served by its Close.
	busy := make([]float64, 0, len(replicas))
	latencies := make([]float64, 0, out.Offered)
	for _, r := range replicas {
		var sm engine.ServeMetrics
		if r.err == nil {
			sm, r.err = r.sv.Close()
		}
		if r.err != nil {
			return out, fmt.Errorf("fleet: replica %s: %w", r.cfg.Name, r.err)
		}
		rm := ReplicaMetrics{
			Name:          r.cfg.Name,
			Device:        r.cfg.Device.Name,
			Model:         string(r.cfg.Spec.ID),
			ServeMetrics:  sm,
			Crashes:       r.crashes,
			ProvisionedAt: r.provisionedAt,
			RetiredAt:     r.retiredAt,
		}
		out.Replicas = append(out.Replicas, rm)
		out.Add(sm.ServeCounters)
		out.TotalEnergy += sm.TotalEnergy
		pm := r.eng.PrefixMetrics()
		out.TierDemotions += pm.Demotions
		out.TierPromotions += pm.Promotions
		if r.eng.Clock() > out.WallTime {
			out.WallTime = r.eng.Clock()
		}
		latencies = append(latencies, sm.Latencies...)
		busy = append(busy, rm.BusyTime)
	}
	if len(latencies) > 0 {
		// The fold owns latencies, so the percentiles may reorder it in
		// place once the mean has read it in completion order.
		out.MeanLatency = stats.Mean(latencies)
		out.P50Latency, out.P95Latency, out.P99Latency = stats.Percentiles3InPlace(latencies)
	}
	out.Imbalance = imbalance(busy)
	if as != nil {
		foldAutoscale(&out, router, as)
	}
	if ft != nil {
		ft.finalize(&out, len(cfg.Replicas))
	}
	return out, nil
}

// dispatch routes the arrival-ordered stream through the ingress queue:
// requests are pulled from the source and enter the shared queue as the
// clock passes their arrivals, and whenever a replica can accept work
// the admission discipline picks which waiting request goes next. The
// dispatch clock is monotone — a request is never dispatched before an
// earlier decision's time.
func dispatch(ro *router, as *autoscaler, cx *chaos, ft *fleetTracer, admission Admission, stream *engine.Peekable, out *Metrics) error {
	q := newIngress(admission)
	shed := func(tr engine.TimedRequest) {
		out.Shed++
		out.drop(tr)
	}
	// admitUntil moves every stream request arriving at or before t into
	// the shared queue, counting it as offered, and re-admits
	// crash-aborted requests whose retry time has come (already offered
	// on first arrival, so not re-counted).
	admitUntil := func(t float64) {
		for {
			tr, ok := stream.Peek()
			if !ok || tr.Arrival > t {
				break
			}
			stream.Next()
			out.Offered++
			q.Push(entry{TimedRequest: tr, since: tr.Arrival})
		}
		for w := cx.pending.Live(); len(w) > 0 && w[0].since <= t; w = cx.pending.Live() {
			q.Push(w[0])
			cx.pending.PopFront()
		}
	}

	now := 0.0
	for {
		if !(stream.More() || q.Len() > 0 || cx.pending.Len() > 0) {
			// Nothing left to dispatch. Remaining crash events can still
			// abort already-routed work: processing them may refill the
			// retry queue (looping us back) or drop the aborts for good.
			_, at, ok := cx.nextCrash()
			if !ok {
				break
			}
			if at > now {
				now = at
			}
			cx.processUpTo(now)
			continue
		}
		if q.Len() == 0 {
			next := math.Inf(1)
			if tr, ok := stream.Peek(); ok {
				next = tr.Arrival
			}
			if w := cx.pending.Live(); len(w) > 0 && w[0].since < next {
				next = w[0].since
			}
			// Never advance past an unprocessed crash: its aborts may
			// spawn retries due before the next arrival.
			if _, at, ok := cx.nextCrash(); ok && at < next {
				next = at
			}
			if next > now {
				now = next
			}
		}
		cx.processUpTo(now)
		admitUntil(now)
		if ft != nil {
			ft.sampleQueue(now, q.Len())
		}
		if as != nil {
			if err := as.observe(ro, q, now); err != nil {
				return err
			}
		}
		if q.Len() == 0 {
			// The idle advance landed on a crash instant rather than an
			// arrival or retry; the event is processed, nothing is waiting.
			continue
		}
		t, ok := ro.nextFree(now)
		if !ok {
			// Permanent outage: every replica is dead for good, with no
			// warm-ups, restarts, or breaker probes pending. An autoscaler
			// below Max revives the pool with an emergency provision
			// (ignoring cooldown); otherwise nothing can, so drop the rest
			// of the stream in O(1) per request instead of rescanning the
			// replicas for each one.
			if as != nil && ro.liveCount(now) < as.cfg.Max {
				if err := as.provision(ro, now, "outage"); err != nil {
					return err
				}
				continue
			}
			// Remaining crash events can only abort work that nothing can
			// re-serve: account them, then drop the retry queue.
			cx.processUpTo(math.Inf(1))
			cx.drainRetries()
			q.drain(out.drop)
			for {
				tr, ok := stream.Next()
				if !ok {
					break
				}
				out.Offered++
				out.drop(tr)
			}
			return nil
		}
		// A crash between now and the planned dispatch instant invalidates
		// the plan — it may free capacity (aborts), kill the chosen
		// replica, or open a breaker. Process it and re-route; dispatch
		// never crosses an unprocessed crash.
		if _, at, ok := cx.nextCrash(); ok && at <= t {
			cx.processUpTo(at)
			now = at
			continue
		}
		// Arrivals during the capacity wait join the queue before the
		// discipline picks, so a reordering ingress sees everything that
		// is actually waiting at dispatch time.
		admitUntil(t)
		if admission == Shed {
			q.dropLate(t, shed)
			if q.Len() == 0 {
				now = t
				continue
			}
		}
		e := q.take(q.pick())
		tr := e.TimedRequest
		if admission == Shed && tr.Deadline > 0 && t+ro.bestService(tr, t) > tr.Deadline {
			// Even starting immediately on the fastest replica that could
			// take it, the batch-1 service time alone overruns the
			// deadline — a certain miss. Shed it and keep the capacity
			// for work that can still make it, before the routing policy
			// mutates any state for a request that never dispatches. (The
			// serial backlog horizon is deliberately not consulted: it
			// overestimates completion under batched decode and would
			// shed feasible work.)
			shed(tr)
			now = t
			continue
		}
		ro.chooseAt(tr, t).take(tr, t)
		if ft != nil {
			ft.dispatched(e, t)
			ft.sampleQueue(t, q.Len())
		}
		now = t
	}
	return nil
}

// foldAutoscale finalizes the elastic-pool accounting: retire remaining
// idle replicas for billing purposes, then fold the event log and
// replica-seconds into the metrics.
func foldAutoscale(out *Metrics, ro *router, as *autoscaler) {
	as.retireIdle(ro, math.Inf(1))
	out.ScaleEvents = as.events
	out.PeakReplicas = as.peak
	for _, ev := range as.events {
		if ev.Up {
			out.ScaleUps++
		} else {
			out.ScaleDowns++
		}
	}
	for i, r := range ro.replicas {
		end := out.WallTime
		switch {
		case r.retired:
			end = r.retiredAt
		case r.tl != nil && r.tl.deadAt < end:
			// A permanent crash ends the replica's bill.
			end = r.tl.deadAt
		}
		if end < r.provisionedAt {
			end = r.provisionedAt
		}
		out.ReplicaSeconds += end - r.provisionedAt
		if r.retired {
			out.Replicas[i].RetiredAt = r.retiredAt
		}
	}
}

// imbalance is the population coefficient of variation.
func imbalance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	mean := stats.Mean(xs)
	if mean <= 0 {
		return 0
	}
	ss := 0.0
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return math.Sqrt(ss/float64(len(xs))) / mean
}

// trimLower normalizes a CLI spelling.
func trimLower(s string) string { return strings.ToLower(strings.TrimSpace(s)) }

// router owns the dispatch-time state shared across requests.
type router struct {
	replicas []*replica
	policy   Policy
	// tiered enables warmth-ranked SessionAffinity re-pinning (set when
	// the fleet's replicas carry a host-DRAM tier); non-tiered fleets
	// keep the least-pinned behavior bit for bit.
	tiered bool
	rrNext int
	// sticky maps a session ID to the replica index its turns are pinned
	// to (SessionAffinity only; re-pinned on fallback; -1 once purged),
	// and pinned counts
	// sessions per replica so new sessions spread instead of piling onto
	// the lowest index while queues are momentarily empty.
	sticky map[string]int
	pinned []int
	// scratch holds the candidate set nextFree found for its instant.
	scratch []int
}

// nextFree returns the earliest time >= t at which some replica can
// accept a dispatch (routable with spare capacity), and leaves every
// such replica, in index order, in ro.scratch: the candidate set
// bestService and chooseAt read at that instant. Nothing between them
// changes replica state, so the set stays exact. ok is false when no
// replica will ever accept again — a permanent outage.
//
// Each instant visited checks every replica's availability once. The
// scan reads the replicas and changes none of them, so when a crash due
// before the returned instant sends dispatch back to an earlier one,
// the backlog read there is the one a scan from there would have seen.
func (ro *router) nextFree(t float64) (float64, bool) {
	for {
		ro.scratch = ro.scratch[:0]
		next := math.Inf(1)
		for i, r := range ro.replicas {
			at, never := r.availAt(t)
			if never {
				continue
			}
			if at > t {
				// Unavailable now: it could accept when it next becomes
				// available (warm-up end, crash restart, breaker probe).
				next = math.Min(next, at)
				continue
			}
			unfinished := r.finishes[r.completed(t):]
			if len(unfinished) < r.cfg.capacity {
				ro.scratch = append(ro.scratch, i)
				continue
			}
			if len(ro.scratch) == 0 && len(unfinished) > 0 {
				// Available but at capacity: its earliest unfinished
				// estimate frees a slot, provided it is still available
				// then. Only needed while no replica can take work now.
				free := unfinished[0]
				if at2, never2 := r.availAt(free); !never2 {
					next = math.Min(next, math.Max(free, at2))
				}
			}
		}
		if len(ro.scratch) > 0 {
			return t, true
		}
		// Everyone is full, cold, dead, down, blocked, or retired.
		if math.IsInf(next, 1) {
			return 0, false
		}
		t = next
	}
}

// bestService is the fastest batch-1 service estimate among the
// candidates nextFree left for t — the certain-miss lower bound the Shed
// discipline tests against. It mutates nothing.
func (ro *router) bestService(tr engine.TimedRequest, t float64) float64 {
	best := math.Inf(1)
	for _, i := range ro.scratch {
		if s := ro.replicas[i].finishEstimate(tr, t) - t; s < best {
			best = s
		}
	}
	return best
}

// idleReplicas counts replicas that could start a request immediately —
// routable with an empty backlog — at time t.
func (ro *router) idleReplicas(t float64) int {
	n := 0
	for _, r := range ro.replicas {
		if r.routableAt(t) && r.outstanding(t) == 0 {
			n++
		}
	}
	return n
}

// chooseAt applies the routing policy at time t over the candidates
// nextFree left for t, which is never empty there.
func (ro *router) chooseAt(tr engine.TimedRequest, t float64) *replica {
	return ro.replicas[ro.choose(ro.scratch, tr, t)]
}

// purge displaces the sessions pinned to a replica leaving the pool (or
// crashing), so no pin points at a retired replica. Displaced sessions
// re-pin on their next turn.
func (ro *router) purge(idx int) {
	if ro.sticky == nil {
		return
	}
	for sid, p := range ro.sticky {
		if p == idx {
			ro.sticky[sid] = -1
		}
	}
	if idx < len(ro.pinned) {
		ro.pinned[idx] = 0
	}
}

// choose applies the routing policy over the candidate indices (which
// are always non-empty and sorted ascending).
func (ro *router) choose(candidates []int, tr engine.TimedRequest, t float64) int {
	switch ro.policy {
	case LeastQueue:
		return leastQueued(ro.replicas, candidates, t)
	case SessionAffinity:
		// A session's turns chase their prefix KV: stay on the pinned
		// replica while it can take the request. A new session pins to
		// the replica carrying the fewest sessions — least-connections, so
		// concurrent sessions spread even while queues are momentarily
		// empty — with queue depth breaking ties. When the pinned replica
		// is saturated, cold, failed or crashed, the displaced session
		// re-pins the same way, except that tiered fleets first rank the
		// candidates by how much of the turn's history each still holds.
		if tr.SessionID == "" {
			return leastQueued(ro.replicas, candidates, t)
		}
		p, seen := ro.sticky[tr.SessionID]
		if seen && p >= 0 {
			for _, c := range candidates {
				if c == p {
					return p
				}
			}
			ro.pinned[p]--
		}
		if ro.sticky == nil {
			ro.sticky = make(map[string]int)
		}
		// The autoscaler can have grown the pool since the last pin.
		for len(ro.pinned) < len(ro.replicas) {
			ro.pinned = append(ro.pinned, 0)
		}
		best := candidates[0]
		bestWarm := ro.warmth(best, tr, t, seen)
		for _, i := range candidates[1:] {
			w := ro.warmth(i, tr, t, seen)
			if w > bestWarm ||
				(w == bestWarm && (ro.pinned[i] < ro.pinned[best] ||
					(ro.pinned[i] == ro.pinned[best] && ro.replicas[i].outstanding(t) < ro.replicas[best].outstanding(t)))) {
				best, bestWarm = i, w
			}
		}
		ro.sticky[tr.SessionID] = best
		ro.pinned[best]++
		return best
	case LatencyWeighted:
		// Smooth weighted round-robin (nginx-style): deterministic and
		// proportional to replica speed over any window.
		total := 0.0
		for _, i := range candidates {
			w := ro.replicas[i].speed()
			ro.replicas[i].wrrCredit += w
			total += w
		}
		best := candidates[0]
		for _, i := range candidates[1:] {
			if ro.replicas[i].wrrCredit > ro.replicas[best].wrrCredit {
				best = i
			}
		}
		ro.replicas[best].wrrCredit -= total
		return best
	case DeadlineAware:
		// Earliest estimated completion: the replica most likely to get
		// the request in under its deadline.
		best, earliest := candidates[0], math.Inf(1)
		for _, i := range candidates {
			r := ro.replicas[i]
			est := r.finishEstimate(tr, math.Max(r.estFreeAt, t))
			if est < earliest {
				best, earliest = i, est
			}
		}
		return best
	default: // RoundRobin
		n := len(ro.replicas)
		for off := 0; off < n; off++ {
			i := (ro.rrNext + off) % n
			for _, c := range candidates {
				if c == i {
					ro.rrNext = i + 1
					return i
				}
			}
		}
		return candidates[0] // unreachable: candidates is non-empty
	}
}

// warmth ranks replica i for a re-pinning session's turn at t by how
// much of the turn's history it holds, advancing its engine there first:
// the longer resident prefix across both tiers wins (a host-tier restore
// still beats re-prefilling), and device residency breaks ties — one
// key, since the device head never exceeds the resident length. New
// sessions, untiered fleets and symless turns all read as cold, so their
// placement is the least-pinned rule alone: every session opens on a
// shared system prompt, and ranking first turns by it would pile new
// sessions onto whichever replica served first.
func (ro *router) warmth(i int, tr engine.TimedRequest, t float64, repin bool) int {
	if !ro.tiered || !repin || len(tr.PromptSyms) == 0 {
		return 0
	}
	r := ro.replicas[i]
	r.advance(t)
	dev, host := r.eng.PeekPrefix(tr.PromptSyms)
	return (dev+host)*(len(tr.PromptSyms)+1) + dev
}

// leastQueued picks the candidate with the fewest outstanding requests
// at t, breaking ties by index.
func leastQueued(replicas []*replica, candidates []int, t float64) int {
	best := candidates[0]
	for _, i := range candidates[1:] {
		if replicas[i].outstanding(t) < replicas[best].outstanding(t) {
			best = i
		}
	}
	return best
}
