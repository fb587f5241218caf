// Fleet-level telemetry: the dispatch loop and the fault machinery feed
// a shared ingress track (queue-wait and retry-backoff spans), a faults
// track (abort spans, crash instants, and the pre-rendered stall and
// throttle windows), and fleet-wide series (ingress depth, live pool
// size, breaker opens). Replica-side spans come from the engines, which
// record into per-replica tracks the fleet registers at construction.
// Everything here is nil-guarded off Config.Trace, so an untraced run
// pays one pointer compare per hook.
package fleet

import (
	"sort"

	"edgereasoning/internal/engine"
	"edgereasoning/internal/telemetry"
)

// fleetTracer owns the dispatch-side telemetry for one run. It is nil
// when tracing is off; every call site guards — a contract the traceoff
// analyzer enforces via the directive below.
//
//edgereasoning:tracer
type fleetTracer struct {
	trace   *telemetry.Trace
	ingress *telemetry.Track
	faults  *telemetry.Track
	qDepth  *telemetry.Series
	breaker *telemetry.Series
	lanes   telemetry.LaneAllocator // ingress lanes
	flanes  telemetry.LaneAllocator // fault-track lanes
}

// newFleetTracer registers the shared tracks ahead of the replica
// tracks, fixing the Perfetto layout: ingress, faults, then replicas in
// pool order.
func newFleetTracer(t *telemetry.Trace) *fleetTracer {
	if t == nil {
		return nil
	}
	return &fleetTracer{
		trace:   t,
		ingress: t.Track("ingress"),
		faults:  t.Track("faults"),
		qDepth:  t.GaugeSeries("ingress_queue_depth", ""),
		breaker: t.CounterFor("breaker_opens", ""),
	}
}

// sampleQueue records the ingress backlog on the dispatch clock.
func (ft *fleetTracer) sampleQueue(t float64, depth int) {
	ft.qDepth.Sample(t, float64(depth))
}

// dispatched records e's shared-queue wait ending in a dispatch at t.
// The wait starts when e last entered the ingress: a first attempt at its
// arrival, a retry at its re-admission instant, where its queue span
// closes the flow its abort opened.
func (ft *fleetTracer) dispatched(e entry, t float64) {
	ft.ingress.Record(telemetry.Span{
		ID: e.ID, Kind: telemetry.KindQueue,
		Lane:  ft.lanes.Lane(e.since, t),
		Start: e.since, End: t,
		Session: e.SessionID, Attempt: e.Attempt, Flow: e.flow,
	})
}

// aborted records one crash-destroyed dispatch on the faults track and
// returns the flow it opens for the retry that may follow. The span
// covers the attempt's time on the replica, from its dispatch to the
// crash.
func (ft *fleetTracer) aborted(tr engine.TimedRequest, dispatched, at, lost float64, replica string) uint64 {
	flow := ft.trace.NextFlow()
	ft.faults.Record(telemetry.Span{
		ID: tr.ID, Kind: telemetry.KindAborted,
		Lane:  ft.flanes.Lane(dispatched, at),
		Start: dispatched, End: at,
		Cause: replica, Lost: lost, Attempt: tr.Attempt,
		Flow: flow, FlowStart: true,
	})
	return flow
}

// retryScheduled records the backoff window between an abort and its
// re-admission (zero-length for a hedged retry), carrying the retry's
// attempt number.
func (ft *fleetTracer) retryScheduled(tr engine.TimedRequest, at, re float64) {
	ft.ingress.Record(telemetry.Span{
		ID: tr.ID, Kind: telemetry.KindRetryWait,
		Lane:  ft.lanes.Lane(at, re),
		Start: at, End: re, Attempt: tr.Attempt,
	})
}

// crashed drops a zero-length crash marker on the faults track.
func (ft *fleetTracer) crashed(replica string, at float64) {
	ft.faults.Record(telemetry.Span{
		Kind: telemetry.KindCrash, Cause: replica,
		Lane:  ft.flanes.Lane(at, at),
		Start: at, End: at,
	})
}

// faultWindows pre-renders every compiled stall and throttle window onto
// the faults track — the injected schedule is known before dispatch
// starts, and seeing the windows alongside the abort spans is the point
// of the track. Windows are laid out in start order so the lane
// assignment is deterministic.
func (ft *fleetTracer) faultWindows(replicas []*replica) {
	var spans []telemetry.Span
	for _, r := range replicas {
		if r.tl == nil {
			continue
		}
		for _, w := range r.tl.fx.Stalls {
			spans = append(spans, telemetry.Span{
				Kind: telemetry.KindStall, Cause: r.cfg.Name,
				Start: w.From, End: w.To,
			})
		}
		for _, w := range r.tl.fx.Throttles {
			spans = append(spans, telemetry.Span{
				Kind: telemetry.KindThrottle, Cause: r.cfg.Name,
				Start: w.From, End: w.To, Factor: w.Factor,
			})
		}
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	for _, s := range spans {
		s.Lane = ft.flanes.Lane(s.Start, s.End)
		ft.faults.Record(s)
	}
}

// finalize samples the pool-size history and the per-replica run totals
// once the fold is complete. The live-replica series replays the scale
// events (initial size at t=0); the per-replica gauges land one sample
// at the wall clock, giving the Prometheus snapshot its final values.
func (ft *fleetTracer) finalize(out *Metrics, initial int) {
	live := ft.trace.GaugeSeries("live_replicas", "")
	live.Sample(0, float64(initial))
	for _, ev := range out.ScaleEvents {
		live.Sample(ev.Time, float64(ev.Live))
	}
	for _, r := range out.Replicas {
		ft.trace.GaugeSeries("replica_served", r.Name).Sample(out.WallTime, float64(r.Served))
		ft.trace.GaugeSeries("replica_busy_seconds", r.Name).Sample(out.WallTime, r.BusyTime)
		ft.trace.GaugeSeries("replica_crashes", r.Name).Sample(out.WallTime, float64(r.Crashes))
	}
}
