// Fault injection and crash-consistent recovery for the fleet. A
// Config.Faults schedule, the only source of crashes, compiles into
// per-replica timelines: crashes abort the replica's in-flight
// dispatches and wipe its prefix cache on both tiers, stall windows
// freeze it, and throttle windows stretch its decode rate. The recovery
// side makes faults survivable: aborted requests re-enter the shared
// ingress under a RetryPolicy (bounded attempts, exponential backoff, a
// deadline budget), and HealthConfig adds per-replica health to routing
// — a consecutive-failure circuit breaker with half-open probes, plus
// stall-window avoidance.
//
// Crashes execute on the engines, which run in lockstep with dispatch:
// the dispatcher advances the struck replica to the crash instant, and
// its engine aborts exactly what it holds there — its active set and
// every offer not yet admitted — cutting work in progress at the
// instant and reporting what each aborted request had executed as lost
// work. Like any advance, the crash commits the
// replica's open run up to its instant (see the package comment). The
// dispatcher routes every abort to the retry queue or the drop ledger,
// so dispatch and execution can never disagree about which requests a
// crash destroyed. The timelines are also the dispatcher's only crash
// list: it fires their crashes in global (instant, replica) order.
package fleet

import (
	"fmt"
	"math"
	"sort"

	"edgereasoning/internal/engine"
	"edgereasoning/internal/faults"
	"edgereasoning/internal/queue"
)

// RetryPolicy re-admits crash-aborted requests through the shared
// ingress: at most 3 dispatch attempts per request, the first included,
// with the n-th re-admission waiting 0.5·2^(n-1) seconds after the
// abort. A nil Config.Retry drops aborted work on the floor — the
// no-recovery baseline the drills experiment compares against.
type RetryPolicy struct {
	// Hedge skips the backoff on the first re-admission — an immediate
	// hedged retry against the crashed attempt; later attempts back off
	// exponentially as usual.
	Hedge bool
}

const (
	maxAttempts  = 3   // dispatch attempts per request, the first included
	retryBackoff = 0.5 // seconds before the first re-admission
)

// HealthConfig enables health-aware routing: each replica carries a
// consecutive-failure circuit breaker, and the router steers new work
// away from replicas it knows to be stalled. A nil Config.Health routes
// blind — crashes still make a replica physically unroutable while it
// is down, but nothing remembers that it keeps failing.
type HealthConfig struct {
	// FailureThreshold opens a replica's breaker after this many
	// consecutive crashes (default 1).
	FailureThreshold int
	// ProbeAfter is the open-to-half-open delay, measured from the
	// moment the replica is back up (restart instant): the breaker then
	// admits exactly one probe request; a probe whose estimated
	// completion passes without another crash closes the breaker, a
	// crash during the probe re-opens it. Default 5 s.
	ProbeAfter float64
}

func (h HealthConfig) withDefaults() HealthConfig {
	if h.FailureThreshold <= 0 {
		h.FailureThreshold = 1
	}
	if h.ProbeAfter <= 0 {
		h.ProbeAfter = 5
	}
	return h
}

func (h HealthConfig) validate() error {
	if math.IsNaN(h.ProbeAfter) || math.IsInf(h.ProbeAfter, 0) || h.ProbeAfter < 0 {
		return fmt.Errorf("fleet: health ProbeAfter must be finite and non-negative, got %v", h.ProbeAfter)
	}
	return nil
}

// timeline is one replica's compiled fault view: the engine's fault
// injection, which owns the stall and throttle windows and their timing,
// plus what the router needs beyond it.
type timeline struct {
	fx engine.FaultInjection // fx.Crashes ascending
	// restarts[k] is the absolute rejoin instant of crash fx.Crashes[k];
	// +Inf when it never returns.
	restarts []float64
	// deadAt is the earliest no-restart crash instant (+Inf when every
	// crash restarts): from deadAt on the replica is gone for good.
	deadAt float64
	// fired counts the crashes the dispatcher has executed, so
	// fx.Crashes[fired] is the next one due.
	fired int
	// ix is the router's own compiled copy of fx's windows (the engine
	// compiles another for its run), and down the crash-down windows
	// [fx.Crashes[k], restarts[k]) merged into chains. Both carry the
	// router's cursors; compile builds them.
	ix   engine.FaultIndex
	down engine.Chains
}

// compile builds the router's indexes from the timeline's windows. A
// timeline is read only after it.
func (tl *timeline) compile() {
	tl.ix = tl.fx.Compile()
	tl.down = engine.NewChains(tl.fx.Crashes, tl.restarts)
}

// healthState is one replica's circuit breaker. State changes are
// applied at monotone dispatch-clock times by settle/strike/noteTake;
// blockedAt is pure, so the router may probe future instants freely.
type healthState struct {
	cfg         HealthConfig
	fails       int  // consecutive crashes
	open        bool // breaker open: no traffic before openUntil, then one probe
	openUntil   float64
	probing     bool // the half-open probe is outstanding
	probeFinish float64
}

// strike records a crash at a replica that comes back up at backUpAt,
// reporting whether it freshly opened the breaker.
func (h *healthState) strike(backUpAt float64) bool {
	h.fails++
	h.probing = false
	if !h.open && h.fails >= h.cfg.FailureThreshold {
		h.open = true
		h.openUntil = backUpAt + h.cfg.ProbeAfter
		return true
	}
	if h.open {
		// A crash while open (the probe went down with it): push the
		// half-open horizon out from the new restart.
		h.openUntil = backUpAt + h.cfg.ProbeAfter
	}
	return false
}

// blockedAt reports whether the breaker blocks dispatch at t, and until
// when it does.
func (h *healthState) blockedAt(t float64) (bool, float64) {
	if !h.open {
		return false, 0
	}
	if t < h.openUntil {
		return true, h.openUntil
	}
	if h.probing && t < h.probeFinish {
		// Half-open admits exactly one probe; everyone else waits for
		// its verdict.
		return true, h.probeFinish
	}
	return false, 0
}

// settle closes the breaker once the outstanding probe's estimated
// completion has passed without a crash taking it down.
func (h *healthState) settle(t float64) {
	if h.open && h.probing && h.probeFinish <= t {
		h.open = false
		h.probing = false
		h.fails = 0
	}
}

// noteTake records a half-open dispatch as the breaker's probe.
func (h *healthState) noteTake(t, finish float64) {
	if h.open && !h.probing && t >= h.openUntil {
		h.probing = true
		h.probeFinish = finish
	}
}

// compileFaults builds per-replica fault timelines from Config.Faults
// (nil for fault-free replicas), each window list sized exactly.
// Fault schedules target the configured replica set;
// autoscaler-provisioned replicas are fault-free.
func compileFaults(cfg Config) ([]*timeline, error) {
	tls := make([]*timeline, len(cfg.Replicas))
	if cfg.Faults == nil {
		return tls, nil
	}
	if err := cfg.Faults.Validate(len(cfg.Replicas)); err != nil {
		return nil, err
	}
	evs := cfg.Faults.Sorted()
	// Count each replica's windows first, so every list is allocated once
	// at its final size.
	type count struct{ crashes, stalls, throttles int }
	counts := make([]count, len(cfg.Replicas))
	for _, ev := range evs {
		c := &counts[ev.Replica]
		switch {
		case ev.Kind == faults.Crash:
			c.crashes++
		case ev.Kind == faults.Stall:
			c.stalls++
		case ev.Kind == faults.Throttle && ev.Factor > 1:
			c.throttles++
		}
		if tls[ev.Replica] == nil {
			tls[ev.Replica] = &timeline{deadAt: math.Inf(1)}
		}
	}
	for i, tl := range tls {
		if tl == nil {
			continue
		}
		c := counts[i]
		if c.crashes > 0 {
			both := make([]float64, 2*c.crashes)
			tl.fx.Crashes, tl.restarts = both[:0:c.crashes], both[c.crashes:c.crashes]
		}
		if c.stalls > 0 {
			tl.fx.Stalls = make([]engine.StallWindow, 0, c.stalls)
		}
		if c.throttles > 0 {
			tl.fx.Throttles = make([]engine.ThrottleWindow, 0, c.throttles)
		}
	}
	for _, ev := range evs {
		tl := tls[ev.Replica]
		switch ev.Kind {
		case faults.Crash:
			// Sorted order keeps fx.Crashes ascending.
			restart := math.Inf(1)
			if ev.Restart > 0 {
				restart = ev.At + ev.Restart
			} else {
				tl.deadAt = math.Min(tl.deadAt, ev.At)
			}
			tl.fx.Crashes = append(tl.fx.Crashes, ev.At)
			tl.restarts = append(tl.restarts, restart)
		case faults.Stall:
			tl.fx.Stalls = append(tl.fx.Stalls, engine.StallWindow{From: ev.At, To: ev.At + ev.Duration})
		case faults.Throttle:
			if ev.Factor > 1 {
				tl.fx.Throttles = append(tl.fx.Throttles, engine.ThrottleWindow{From: ev.At, To: ev.At + ev.Duration, Factor: ev.Factor})
			}
		}
	}
	for _, tl := range tls {
		if tl != nil {
			tl.compile()
		}
	}
	return tls, nil
}

// chaos owns the dispatch-time fault machinery for one run: firing the
// replicas' timeline crashes, the retry queue, and the recovery
// accounting. A waiting retry keeps its true arrival, so end-to-end
// latency accounting spans every attempt.
type chaos struct {
	ro      *router
	retry   *RetryPolicy       // nil drops every abort
	pending queue.Queue[entry] // sorted ascending by since
	out     *Metrics
	ft      *fleetTracer // nil when tracing is off
}

// nextCrash returns the replica struck by the earliest unfired crash on
// any timeline, and its instant; ties go to the lower replica index. ok
// is false once every crash has fired.
func (cx *chaos) nextCrash() (i int, at float64, ok bool) {
	i, at = -1, math.Inf(1)
	for k, r := range cx.ro.replicas {
		if tl := r.tl; tl != nil && tl.fired < len(tl.fx.Crashes) && tl.fx.Crashes[tl.fired] < at {
			i, at = k, tl.fx.Crashes[tl.fired]
		}
	}
	return i, at, i >= 0
}

// drainRetries abandons everything in the retry queue — the permanent-
// outage path, where re-admission can no longer help.
func (cx *chaos) drainRetries() {
	cx.pending.Filter(func(*entry) bool { return false }, func(e *entry) { cx.abandon(e.TimedRequest) })
}

// pushRetry inserts sorted by re-admission time, after equal keys.
func (cx *chaos) pushRetry(e entry) {
	w := cx.pending.Live()
	cx.pending.Insert(sort.Search(len(w), func(k int) bool { return w[k].since > e.since }), e)
}

// processUpTo fires every crash at or before t, in global (instant,
// replica) order, and settles the breakers at t. Idempotent and
// monotone: the dispatch loop calls it at every clock advance, and a
// crash is always processed before any dispatch decision at or after its
// instant.
func (cx *chaos) processUpTo(t float64) {
	for {
		i, at, ok := cx.nextCrash()
		if !ok || at > t {
			break
		}
		cx.crash(i)
	}
	if !math.IsInf(t, 1) {
		for _, r := range cx.ro.replicas {
			if r.hs != nil {
				r.hs.settle(t)
			}
		}
	}
}

// crash fires replica i's next timeline crash: advance the replica's
// engine to the crash instant, where it aborts everything it holds;
// account the lost work; route each abort to the retry queue or the drop
// ledger; strike the replica's breaker; and displace its sticky sessions
// so they re-pin by warmth.
func (cx *chaos) crash(i int) {
	r := cx.ro.replicas[i]
	at, restart := r.tl.fx.Crashes[r.tl.fired], r.tl.restarts[r.tl.fired]
	r.tl.fired++
	if r.hs != nil {
		// A probe that was estimated to finish before this crash
		// succeeded: settle it first, so the crash is a fresh strike
		// rather than a continuation of the old open.
		r.hs.settle(at)
	}
	cx.out.Crashes++
	r.crashes++
	if cx.ft != nil {
		cx.ft.crashed(r.cfg.Name, at)
	}
	r.advance(at)
	for _, ab := range r.sv.Aborted() {
		cx.out.Aborted++
		cx.out.LostWorkSeconds += ab.Lost
		var flow uint64
		if cx.ft != nil {
			flow = cx.ft.aborted(ab.TimedRequest, ab.OfferedAt, at, ab.Lost, r.cfg.Name)
		}
		cx.requeue(ab.TimedRequest, at, flow)
	}
	// The replica holds nothing after the crash, so the outstanding
	// estimates empty wholesale.
	r.finishes = r.finishes[:0]
	if !math.IsInf(restart, 1) {
		r.estFreeAt = restart
	}
	if r.hs != nil {
		backUp := restart
		if math.IsInf(backUp, 1) {
			backUp = at
		}
		if r.hs.strike(backUp) {
			cx.out.BreakerOpens++
			if cx.ft != nil {
				cx.ft.breaker.Add(at, 1)
			}
		}
	}
	cx.ro.purge(i)
}

// requeue routes one request that a crash at instant at aborted, as the
// engine returned it, with the trace flow its abort opened (0 untraced):
// back into the ingress at its backoff-delayed re-admission time when
// the retry policy allows, to the drop ledger otherwise.
func (cx *chaos) requeue(tr engine.TimedRequest, at float64, flow uint64) {
	if cx.retry == nil {
		cx.abandon(tr)
		return
	}
	tr.Attempt++
	n := tr.Attempt // the n-th abort of this request
	if n+1 > maxAttempts {
		cx.abandon(tr)
		return
	}
	back := retryBackoff * math.Pow(2, float64(n-1))
	if cx.retry.Hedge && n == 1 {
		back = 0
	}
	re := at + back
	if tr.Deadline > 0 && re >= tr.Deadline {
		// The retry budget is the deadline itself: a re-admission that
		// already overruns it could only ever be served late.
		cx.abandon(tr)
		return
	}
	cx.out.Retried++
	if cx.ft != nil {
		cx.ft.retryScheduled(tr, at, re)
	}
	cx.pushRetry(entry{TimedRequest: tr, since: re, flow: flow})
}

// abandon drops an aborted request for good.
func (cx *chaos) abandon(tr engine.TimedRequest) {
	cx.out.AbortedDropped++
	cx.out.drop(tr)
}
