package telemetry

import (
	"sort"

	"edgereasoning/internal/label"
)

// RequestPhases is one served request's end-to-end latency decomposed
// from its trace spans. The phases tile [Arrival, Finish] exactly:
//
//	Ingress + RetryWait + AbortedWall + ReplicaWait
//	  + Stall + Restore + Prefill + Decode + Gap  ==  Finish − Arrival
//
// (up to float re-summation; Residual reports the difference). Gap is
// the time inside the serving window not attributable to the request's
// own phases — batchmate prefills and admission work interleaved by
// continuous batching.
type RequestPhases struct {
	ID       label.Label
	Track    string  // replica that served the final attempt
	Arrival  float64 // original arrival (first queue span start)
	Finish   float64 // final attempt completion
	Attempts int     // crash-aborted attempts before the served one
	// Phase sums in simulated seconds.
	Ingress     float64 // shared-ingress queue wait, all attempts
	RetryWait   float64 // crash-to-re-admission backoff windows
	AbortedWall float64 // dispatch-to-crash wall time of destroyed attempts
	LostWork    float64 // executed-and-thrown-away service seconds
	ReplicaWait float64 // engine-local ready-queue wait before admission
	Stall       float64
	Restore     float64
	Prefill     float64
	Decode      float64
	Gap         float64
	CachedTok   int // prompt tokens served from the prefix cache
}

// E2E is the request's end-to-end latency.
func (r RequestPhases) E2E() float64 { return r.Finish - r.Arrival }

// Residual is E2E minus the phase sum — float rounding noise when the
// trace is consistent, something structural when it is not.
func (r RequestPhases) Residual() float64 {
	return r.E2E() - (r.Ingress + r.RetryWait + r.AbortedWall + r.ReplicaWait +
		r.Stall + r.Restore + r.Prefill + r.Decode + r.Gap)
}

// Breakdown folds the trace's spans into per-request phase
// decompositions for every request that completed (has a KindRequest
// span), sorted by (arrival, ID). Requests that were dropped — never
// served — are not included.
func (t *Trace) Breakdown() []RequestPhases {
	byID := map[label.Label]*RequestPhases{}
	get := func(id label.Label) *RequestPhases {
		rp, ok := byID[id]
		if !ok {
			rp = &RequestPhases{ID: id, Arrival: -1}
			byID[id] = rp
		}
		return rp
	}
	// The served attempt's window opens at its request span's start; a
	// crash-aborted attempt's replica phases all end before it, and are
	// already covered by the attempt's abort span.
	served := map[label.Label]float64{}
	for _, tr := range t.Tracks() {
		for _, s := range tr.Spans() {
			if s.Kind == KindRequest {
				served[s.ID] = s.Start
			}
		}
	}
	for _, tr := range t.Tracks() {
		for _, s := range tr.Spans() {
			if s.ID.IsZero() {
				continue
			}
			if start, ok := served[s.ID]; ok && s.Start < start {
				switch s.Kind {
				case KindStall, KindRestore, KindPrefill, KindDecode:
					continue // a crash-aborted attempt's phase
				}
			}
			rp := get(s.ID)
			switch s.Kind {
			case KindQueue:
				rp.Ingress += s.Dur()
				if s.Attempt == 0 {
					rp.Arrival = s.Start
				}
			case KindRetryWait:
				rp.RetryWait += s.Dur()
			case KindAborted:
				rp.AbortedWall += s.Dur()
				rp.LostWork += s.Lost
				rp.Attempts++
			case KindRequest:
				rp.Track = tr.Name()
				rp.Finish = s.End
				rp.ReplicaWait = s.Wait
				rp.CachedTok = s.Cached
				// Gap starts as the full serving window; the request's own
				// phase children below subtract themselves out.
				rp.Gap += s.Dur()
			case KindStall:
				rp.Stall += s.Dur()
				rp.Gap -= s.Dur()
			case KindRestore:
				rp.Restore += s.Dur()
				rp.Gap -= s.Dur()
			case KindPrefill:
				rp.Prefill += s.Dur()
				rp.Gap -= s.Dur()
			case KindDecode:
				rp.Decode += s.Dur()
				rp.Gap -= s.Dur()
			}
		}
	}
	out := make([]RequestPhases, 0, len(served))
	for id, rp := range byID {
		if _, ok := served[id]; !ok {
			continue
		}
		if rp.Arrival < 0 {
			// No ingress span (engine-only trace): the serving window is
			// the whole story; arrival backs out of the replica wait.
			rp.Arrival = rp.Finish - (rp.Gap + rp.Stall + rp.Restore + rp.Prefill + rp.Decode) - rp.ReplicaWait
		}
		out = append(out, *rp)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Arrival != out[j].Arrival {
			return out[i].Arrival < out[j].Arrival
		}
		return out[i].ID.String() < out[j].ID.String()
	})
	return out
}
