// Package telemetry is the simulator's observability substrate: bounded
// per-track span recording and sampled time-series, driven entirely off
// the simulated event clock, with Chrome trace-event (Perfetto) and
// Prometheus text-format exporters. The layer is zero-overhead when off:
// every producer call site guards on a nil Tracer, so an untraced run
// executes byte-identically to a build without the package.
//
// The track model mirrors the serving stack: one track per replica
// engine (its lanes are the engine's batch-arena slots, so sibling spans
// on a lane never overlap), one ingress track for shared-queue waits,
// and one faults track for crash/stall/throttle windows and aborted
// attempts. Tracks are single-writer — each replica engine records only
// into its own track — so recording needs no per-record locking; the
// shared registry is only touched at registration time, under a mutex.
package telemetry

import "edgereasoning/internal/label"

// Span kinds. A served request's life renders as one enclosing
// KindRequest span for the served attempt, with phase children inside
// it, plus ingress/fault spans on the shared tracks; a crash-aborted
// attempt leaves only phase spans on its replica, ahead of that window,
// and a KindAborted span on the faults track.
const (
	// KindRequest encloses one served attempt on a replica track:
	// engine admission to completion. Wait carries the engine-local
	// ready-queue wait that precedes the span.
	KindRequest = "request"
	// KindQueue is a shared-ingress wait: arrival (or retry re-admission)
	// to dispatch.
	KindQueue = "queue"
	// KindRetryWait is the backoff window between a crash abort and the
	// request's re-admission to the ingress.
	KindRetryWait = "retry-wait"
	// KindAborted is a crash-destroyed attempt: dispatch to the crash
	// instant. Lost carries the executed-and-thrown-away service
	// seconds.
	KindAborted = "aborted"
	// KindRestore is a host-tier promotion charged ahead of prefill.
	KindRestore = "restore"
	// KindPrefill is the prompt prefill (Tokens prefilled, Cached served
	// from the prefix cache).
	KindPrefill = "prefill"
	// KindDecode is one decode-chunk segment (Tokens generated); a
	// request's segments sum exactly to its DecodeTime, and the gaps
	// between them are batchmate interference.
	KindDecode = "decode"
	// KindStall is a no-progress fault window as experienced by one
	// sequence (on replica tracks) or as scheduled (on the faults track).
	KindStall = "stall"
	// KindThrottle is a scheduled thermal-throttle window on the faults
	// track (Factor is the slowdown).
	KindThrottle = "throttle"
	// KindCrash is a zero-duration crash instant on the faults track.
	KindCrash = "crash"
)

// Span is one sim-time interval (or instant, when End == Start) on a
// track lane. It is a plain value — recording one is a copy into a
// preallocated ring, no allocation. Zero-valued attribute fields are
// omitted at export.
type Span struct {
	ID   label.Label // request ID; zero for scheduled fault windows
	Kind string      // one of the Kind constants
	// Lane is the sub-track: the engine arena slot on replica tracks, an
	// allocator-assigned lane on shared tracks. Spans on one lane of one
	// track never overlap.
	Lane  int
	Start float64 // simulated seconds
	End   float64
	// Attributes.
	Session string  // session ID, when the request carries one
	Cause   string  // fault attribution: replica name, "throttle", ...
	Attempt int     // retry ordinal (0 = first attempt)
	Tokens  int     // tokens moved by this span (prefill/decode/request)
	Cached  int     // prompt tokens served from the prefix cache
	Wait    float64 // engine-local ready-queue wait preceding a request span
	Lost    float64 // executed-and-lost service seconds on an aborted span
	Factor  float64 // throttle slowdown factor on fault windows
	// Flow links a crash abort to its retry across tracks: the aborted
	// span opens the flow (FlowStart) and the retry's spans close it.
	Flow      uint64
	FlowStart bool
}

// Dur is the span's duration in simulated seconds.
func (s Span) Dur() float64 { return s.End - s.Start }

// LaneAllocator assigns non-overlapping lanes to intervals greedily:
// each interval takes the first lane whose last-placed end is at or
// before the interval's start, opening a new lane otherwise. Every
// placement requires lastEnd <= start <= end, so spans within one lane
// can never overlap regardless of record order; recording in roughly
// ascending start order keeps the lane count near the true maximum
// concurrency.
type LaneAllocator struct {
	ends []float64
}

// Lane places [start, end] and returns its lane.
func (a *LaneAllocator) Lane(start, end float64) int {
	for i, e := range a.ends {
		if e <= start {
			a.ends[i] = end
			return i
		}
	}
	a.ends = append(a.ends, end)
	return len(a.ends) - 1
}
