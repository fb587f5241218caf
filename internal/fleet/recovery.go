// Fault injection and crash-consistent recovery for the fleet. A
// Config.Faults schedule (or a ReplicaConfig.CrashAt shorthand) compiles
// into per-replica timelines: crashes abort the replica's in-flight
// dispatches and wipe its device KV cache (the host tier optionally
// survives), stall windows freeze it, and throttle windows stretch its
// decode rate. The recovery side makes faults survivable: aborted
// requests re-enter the shared ingress under a RetryPolicy (bounded
// attempts, exponential backoff, a deadline budget), and HealthConfig
// adds per-replica health to routing — a consecutive-failure circuit
// breaker with half-open probes, plus stall-window avoidance.
//
// Crashes execute on the engines, which run in lockstep with dispatch:
// the dispatcher advances the struck replica to the crash instant, and
// its engine aborts exactly what it holds there — offers not yet
// admitted, its ready queue and its active set — cutting work in
// progress at the instant and reporting what each aborted request had
// executed as lost work. Like any advance, the crash commits the
// replica's open run up to its instant (see the package comment). The
// dispatcher routes every abort to the retry queue or the drop ledger,
// so dispatch and execution can never disagree about which requests a
// crash destroyed.
package fleet

import (
	"fmt"
	"math"
	"sort"

	"edgereasoning/internal/engine"
	"edgereasoning/internal/faults"
)

// RetryPolicy re-admits crash-aborted requests through the shared
// ingress. A nil Config.Retry drops aborted work on the floor — the
// no-recovery baseline the drills experiment compares against.
type RetryPolicy struct {
	// MaxAttempts bounds total dispatch attempts per request, the first
	// included (default 3).
	MaxAttempts int
	// Backoff is the wait before a request's first re-admission,
	// doubling with every further abort (default 0.5 s).
	Backoff float64
	// Hedge skips the backoff on the first re-admission — an immediate
	// hedged retry against the crashed attempt; later attempts back off
	// exponentially from Backoff as usual.
	Hedge bool
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.Backoff <= 0 {
		p.Backoff = 0.5
	}
	return p
}

func (p RetryPolicy) validate() error {
	if math.IsNaN(p.Backoff) || math.IsInf(p.Backoff, 0) || p.Backoff < 0 {
		return fmt.Errorf("fleet: retry Backoff must be finite and non-negative, got %v", p.Backoff)
	}
	return nil
}

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

// crashPoint is one compiled crash: down over [at, restart).
type crashPoint struct {
	at      float64
	restart float64 // absolute rejoin instant; +Inf when it never returns
}

// timeline is one replica's compiled fault view.
type timeline struct {
	crashes   []crashPoint // sorted ascending by at
	stalls    []engine.StallWindow
	throttles []engine.ThrottleWindow
	keepHost  bool
	// deadAt is the earliest no-restart crash instant (+Inf when every
	// crash restarts): from deadAt on the replica is gone for good.
	deadAt float64
}

// downAt reports whether the replica is crash-down at t, and until when.
func (tl *timeline) downAt(t float64) (bool, float64) {
	for _, c := range tl.crashes {
		if t >= c.at && t < c.restart {
			return true, c.restart
		}
	}
	return false, 0
}

// throttleAt returns the thermal-throttle slowdown factor active at t
// (1 when none; overlapping windows compound, matching the engine's
// decode stretch).
func (tl *timeline) throttleAt(t float64) float64 {
	f := 1.0
	for _, w := range tl.throttles {
		if t >= w.From && t < w.To && w.Factor > 1 {
			f *= w.Factor
		}
	}
	return f
}

// finishAfter integrates svc seconds of work starting at t across the
// replica's fault windows, as the engine executes it: no progress inside
// a stall window, Factor× slower inside a throttle window, full speed
// outside. A flat whole-service stretch would overshoot badly for work
// that merely grazes a window.
func (tl *timeline) finishAfter(t, svc float64) float64 {
	rem := svc
	for rem > 0 {
		t = tl.stallEnd(t)
		f := tl.throttleAt(t)
		// Advance to the next window boundary after t; the factor is
		// constant, and the device unstalled, until then.
		next := math.Inf(1)
		for _, w := range tl.stalls {
			if w.From > t && w.From < next {
				next = w.From
			}
		}
		for _, w := range tl.throttles {
			if w.From > t && w.From < next {
				next = w.From
			}
			if w.To > t && w.To < next {
				next = w.To
			}
		}
		if math.IsInf(next, 1) || t+rem*f <= next {
			return t + rem*f
		}
		rem -= (next - t) / f
		t = next
	}
	return t
}

// stallEnd returns the earliest instant >= t outside every stall window
// (windows may chain or overlap).
func (tl *timeline) stallEnd(t float64) float64 {
	for changed := true; changed; {
		changed = false
		for _, w := range tl.stalls {
			if t >= w.From && t < w.To {
				t = w.To
				changed = true
			}
		}
	}
	return t
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
	probeID     string
	probeFinish float64
}

// strike records a crash at a replica that comes back up at backUpAt,
// reporting whether it freshly opened the breaker.
func (h *healthState) strike(backUpAt float64) bool {
	h.fails++
	h.probing = false
	h.probeID = ""
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
		h.probeID = ""
	}
}

// noteTake records a half-open dispatch as the breaker's probe.
func (h *healthState) noteTake(id string, t, finish float64) {
	if h.open && !h.probing && t >= h.openUntil {
		h.probing = true
		h.probeID = id
		h.probeFinish = finish
	}
}

// injection assembles the engine-level fault view of a timeline: its
// stall and throttle windows and its crashes. Nil for a fault-free
// replica (compileFaults builds a timeline only for a replica with
// faults), keeping its run byte-identical to a fault-free one.
func (tl *timeline) injection() *engine.FaultInjection {
	if tl == nil {
		return nil
	}
	fx := &engine.FaultInjection{Stalls: tl.stalls, Throttles: tl.throttles, KeepHost: tl.keepHost}
	for _, c := range tl.crashes {
		fx.Crashes = append(fx.Crashes, c.at)
	}
	return fx
}

// chaosEvent is one crash in the run's global, time-ordered sequence.
type chaosEvent struct {
	at, restart float64
	replica     int
}

// compileFaults builds per-replica fault timelines from Config.Faults
// and the ReplicaConfig.CrashAt shorthand (nil for fault-free replicas),
// returning them with the global crash sequence in processing order.
// Fault schedules target the configured replica set; autoscaler-
// provisioned replicas are fault-free.
func compileFaults(cfg Config) ([]*timeline, []chaosEvent, error) {
	keepHost := cfg.Faults != nil && cfg.Faults.HostSurvivesCrash
	tls := make([]*timeline, len(cfg.Replicas))
	tl := func(i int) *timeline {
		if tls[i] == nil {
			tls[i] = &timeline{keepHost: keepHost, deadAt: math.Inf(1)}
		}
		return tls[i]
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(len(cfg.Replicas)); err != nil {
			return nil, nil, err
		}
		for _, ev := range cfg.Faults.Sorted() {
			switch ev.Kind {
			case faults.Crash:
				restart := math.Inf(1)
				if ev.Restart > 0 {
					restart = ev.At + ev.Restart
				}
				tl(ev.Replica).crashes = append(tl(ev.Replica).crashes, crashPoint{at: ev.At, restart: restart})
			case faults.Stall:
				tl(ev.Replica).stalls = append(tl(ev.Replica).stalls,
					engine.StallWindow{From: ev.At, To: ev.At + ev.Duration})
			case faults.Throttle:
				if ev.Factor > 1 {
					tl(ev.Replica).throttles = append(tl(ev.Replica).throttles,
						engine.ThrottleWindow{From: ev.At, To: ev.At + ev.Duration, Factor: ev.Factor})
				}
			}
		}
	}
	for i, rc := range cfg.Replicas {
		if c := rc.CrashAt; c != 0 {
			if math.IsNaN(c) || math.IsInf(c, 0) || c < 0 {
				return nil, nil, fmt.Errorf("fleet: replica %s CrashAt must be finite and non-negative, got %v", rc.withDefaults(i).Name, c)
			}
			tl(i).crashes = append(tl(i).crashes, crashPoint{at: c, restart: math.Inf(1)})
		}
	}
	var seq []chaosEvent
	for i, t := range tls {
		if t == nil {
			continue
		}
		sort.SliceStable(t.crashes, func(a, b int) bool { return t.crashes[a].at < t.crashes[b].at })
		for _, c := range t.crashes {
			if math.IsInf(c.restart, 1) && c.at < t.deadAt {
				t.deadAt = c.at
			}
			seq = append(seq, chaosEvent{at: c.at, restart: c.restart, replica: i})
		}
	}
	sort.SliceStable(seq, func(a, b int) bool {
		if seq[a].at != seq[b].at {
			return seq[a].at < seq[b].at
		}
		return seq[a].replica < seq[b].replica
	})
	return tls, seq, nil
}

// retryItem is one crash-aborted request waiting for re-admission; tr
// carries its true arrival so end-to-end latency accounting spans every
// attempt.
type retryItem struct {
	at float64
	tr engine.TimedRequest
}

// chaos owns the dispatch-time fault machinery for one run: the global
// crash sequence, the retry queue, and the recovery accounting. It is
// nil on fault-free runs, keeping the legacy dispatch path untouched.
type chaos struct {
	ro       *router
	retry    RetryPolicy
	retryOn  bool
	healthOn bool
	events   []chaosEvent
	next     int
	pending  []retryItem // sorted ascending by at; consumed from head
	head     int
	attempts map[string]int
	out      *Metrics
	ft       *fleetTracer // nil when tracing is off
}

func (cx *chaos) crashPending() bool { return cx.next < len(cx.events) }

func (cx *chaos) nextCrashAt() (float64, bool) {
	if cx.next < len(cx.events) {
		return cx.events[cx.next].at, true
	}
	return 0, false
}

func (cx *chaos) retryPending() bool { return cx.head < len(cx.pending) }

func (cx *chaos) nextRetryAt() (float64, bool) {
	if cx.head < len(cx.pending) {
		return cx.pending[cx.head].at, true
	}
	return 0, false
}

// popRetryUntil hands back the next re-admission due at or before t.
func (cx *chaos) popRetryUntil(t float64) (engine.TimedRequest, bool) {
	if cx.head >= len(cx.pending) || cx.pending[cx.head].at > t {
		return engine.TimedRequest{}, false
	}
	tr := cx.pending[cx.head].tr
	cx.pending[cx.head] = retryItem{}
	cx.head++
	return tr, true
}

// drainRetries empties the retry queue through drop — the permanent-
// outage path, where re-admission can no longer help.
func (cx *chaos) drainRetries(drop func(engine.TimedRequest)) {
	for cx.head < len(cx.pending) {
		drop(cx.pending[cx.head].tr)
		cx.pending[cx.head] = retryItem{}
		cx.head++
	}
}

// pushRetry inserts sorted by re-admission time, after equal keys.
func (cx *chaos) pushRetry(it retryItem) {
	if cx.head >= 64 && cx.head*2 >= len(cx.pending) {
		n := copy(cx.pending, cx.pending[cx.head:])
		for i := n; i < len(cx.pending); i++ {
			cx.pending[i] = retryItem{}
		}
		cx.pending = cx.pending[:n]
		cx.head = 0
	}
	i := cx.head + sort.Search(len(cx.pending)-cx.head, func(k int) bool {
		return cx.pending[cx.head+k].at > it.at
	})
	cx.pending = append(cx.pending, retryItem{})
	copy(cx.pending[i+1:], cx.pending[i:])
	cx.pending[i] = it
}

// processUpTo handles every crash event at or before t, in global time
// order, and settles the breakers at t. Idempotent and monotone: the
// dispatch loop calls it at every clock advance, and a crash is always
// processed before any dispatch decision at or after its instant.
func (cx *chaos) processUpTo(t float64) {
	for cx.next < len(cx.events) && cx.events[cx.next].at <= t {
		ev := cx.events[cx.next]
		cx.next++
		cx.crash(ev)
	}
	if cx.healthOn && !math.IsInf(t, 1) {
		for _, r := range cx.ro.replicas {
			if r.hs != nil {
				r.hs.settle(t)
			}
		}
	}
}

// crash executes one crash event: advance the replica's engine to the
// crash instant, where it aborts everything it holds; account the lost
// work; route each abort to the retry queue or the drop ledger; strike
// the replica's breaker; and displace its sticky sessions so they
// re-pin by warmth.
func (cx *chaos) crash(ev chaosEvent) {
	r := cx.ro.replicas[ev.replica]
	if r.hs != nil {
		// A probe that was estimated to finish before this crash
		// succeeded: settle it first, so the crash is a fresh strike
		// rather than a continuation of the old open.
		r.hs.settle(ev.at)
	}
	cx.out.Crashes++
	r.crashes++
	if cx.ft != nil {
		cx.ft.crashed(r.cfg.Name, ev.at)
	}
	r.advance(ev.at)
	for _, ab := range r.sv.Aborted() {
		cx.out.Aborted++
		cx.out.LostWorkSeconds += ab.Lost
		if cx.ft != nil {
			cx.ft.aborted(ab.TimedRequest, ab.OfferedAt, ev.at, ab.Lost, r.cfg.Name, cx.attempts[ab.ID])
		}
		cx.requeue(ab.TimedRequest, ev.at)
	}
	// The replica holds nothing after the crash, so the outstanding
	// estimates empty wholesale.
	r.finishes = r.finishes[:0]
	if !math.IsInf(ev.restart, 1) {
		r.estFreeAt = ev.restart
		r.idleFrom = ev.restart
	}
	if r.hs != nil {
		backUp := ev.restart
		if math.IsInf(backUp, 1) {
			backUp = ev.at
		}
		if r.hs.strike(backUp) {
			cx.out.BreakerOpens++
			if cx.ft != nil {
				cx.ft.breaker.Add(ev.at, 1)
			}
		}
	}
	cx.ro.purge(ev.replica)
}

// requeue routes one aborted request: back into the ingress at its
// backoff-delayed re-admission time when the retry policy allows, to the
// drop ledger otherwise.
func (cx *chaos) requeue(tr engine.TimedRequest, at float64) {
	dropIt := func() {
		cx.out.AbortedDropped++
		cx.out.Dropped++
		if tr.Deadline > 0 {
			cx.out.DeadlinesTotal++
		}
	}
	if !cx.retryOn {
		dropIt()
		return
	}
	if cx.attempts == nil {
		cx.attempts = make(map[string]int)
	}
	n := cx.attempts[tr.ID] + 1 // the n-th abort of this request
	cx.attempts[tr.ID] = n
	if n+1 > cx.retry.MaxAttempts {
		dropIt()
		return
	}
	back := cx.retry.Backoff * math.Pow(2, float64(n-1))
	if cx.retry.Hedge && n == 1 {
		back = 0
	}
	re := at + back
	if tr.Deadline > 0 && re >= tr.Deadline {
		// The retry budget is the deadline itself: a re-admission that
		// already overruns it could only ever be served late.
		dropIt()
		return
	}
	cx.out.Retried++
	if cx.ft != nil {
		cx.ft.retryScheduled(tr, at, re, n)
	}
	cx.pushRetry(retryItem{at: re, tr: tr})
}
