package fleet

import (
	"math"
	"math/rand/v2"
	"testing"

	"edgereasoning/internal/engine"
	"edgereasoning/internal/faults"
)

// downAtScan and stallEndScan are timeline.downAt and
// engine.FaultInjection.StallEnd as they stood before the compiled
// indexes: a scan of every crash window, returning the first in
// schedule order that holds t, and a scan of every stall window,
// repeated until none moves t. Kept verbatim as the reference's window
// lookups, so the reference never reads the indexes it checks.
func downAtScan(tl *timeline, t float64) (bool, float64) {
	for k, at := range tl.fx.Crashes {
		if t >= at && t < tl.restarts[k] {
			return true, tl.restarts[k]
		}
	}
	return false, 0
}

func stallEndScan(f *engine.FaultInjection, t float64) float64 {
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

// routableAtRef and availAtRef are the availability rules as they stood
// before routableAt was derived from availAt and availAt from liveAt:
// three hand-maintained predicates. Kept verbatim as the oracle for
// TestAvailabilityMatchesReference, except that the window lookups are
// the scans above and the ReplicaConfig.FailAt terms are gone with the
// field.
func routableAtRef(r *replica, t float64) bool {
	if t < r.cfg.warmupDelay {
		return false
	}
	if r.retired {
		return false
	}
	if r.tl != nil {
		if down, _ := downAtScan(r.tl, t); down {
			return false
		}
	}
	if r.hs != nil {
		if blocked, _ := r.hs.blockedAt(t); blocked {
			return false
		}
		if r.tl != nil && stallEndScan(&r.tl.fx, t) > t {
			return false
		}
	}
	return true
}

func availAtRef(r *replica, t float64) (float64, bool) {
	for {
		switch {
		case r.retired:
			return 0, true
		case r.tl != nil && t >= r.tl.deadAt:
			return 0, true
		case t < r.cfg.warmupDelay:
			if r.tl != nil && r.cfg.warmupDelay >= r.tl.deadAt {
				return 0, true // crash-dead at birth
			}
			t = r.cfg.warmupDelay
			continue
		}
		if r.tl != nil {
			if down, until := downAtScan(r.tl, t); down {
				if math.IsInf(until, 1) {
					return 0, true
				}
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
				if end := stallEndScan(&r.tl.fx, t); end > t {
					t = end
					continue
				}
			}
		}
		return t, false
	}
}

// randomAvailReplica builds a replica in a random availability state on
// a half-second grid, so boundaries coincide often: warm-up, restarting
// and permanent crashes, stall and throttle windows
// (compiled by compileFaults, as a run would), a circuit breaker closed,
// open, half-open or probing, and retirement. It returns the state's
// boundary instants alongside.
func randomAvailReplica(rng *rand.Rand) (*replica, []float64) {
	pick := func(p float64) bool { return rng.Float64() < p }
	instant := func() float64 { return float64(rng.IntN(60)) / 2 }
	var bounds []float64
	rc := ReplicaConfig{}.withDefaults(0)
	if pick(0.5) {
		rc.warmupDelay = instant()
	}
	bounds = append(bounds, rc.warmupDelay)
	var evs []faults.Event
	for n := rng.IntN(4); n > 0; n-- {
		ev := faults.Event{Kind: faults.Crash, At: instant()}
		if pick(0.75) {
			ev.Restart = 0.5 + instant()/2
		}
		evs = append(evs, ev)
		bounds = append(bounds, ev.At, ev.At+ev.Restart)
	}
	for n := rng.IntN(4); n > 0; n-- {
		ev := faults.Event{Kind: faults.Stall, At: instant(), Duration: 0.5 + instant()/4}
		evs = append(evs, ev)
		bounds = append(bounds, ev.At, ev.At+ev.Duration)
	}
	for n := rng.IntN(3); n > 0; n-- {
		ev := faults.Event{Kind: faults.Throttle, At: instant(), Duration: 0.5 + instant()/4, Factor: 2}
		evs = append(evs, ev)
		bounds = append(bounds, ev.At, ev.At+ev.Duration)
	}
	cfg := Config{Replicas: []ReplicaConfig{rc}}
	if len(evs) > 0 {
		cfg.Faults = &faults.Schedule{Events: evs}
	}
	tls, err := compileFaults(cfg)
	if err != nil {
		panic(err)
	}
	r := &replica{cfg: rc, tl: tls[0], retired: pick(0.1)}
	if pick(0.6) {
		r.hs = &healthState{
			cfg:         HealthConfig{}.withDefaults(),
			open:        pick(0.5),
			openUntil:   instant(),
			probing:     pick(0.5),
			probeFinish: instant(),
		}
		bounds = append(bounds, r.hs.openUntil, r.hs.probeFinish)
	}
	return r, bounds
}

// TestAvailabilityMatchesReference pins the one availability rule —
// routableAt derived from availAt, availAt opening on liveAt — to the
// three predicates it replaced, over randomized replica states sampled
// at every boundary instant, one ulp either side of it, and between.
func TestAvailabilityMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 0xa7a11))
	var routable, waits, never int
	for trial := 0; trial < 3000; trial++ {
		r, bounds := randomAvailReplica(rng)
		for _, b := range bounds {
			for _, at := range []float64{
				b, math.Nextafter(b, math.Inf(-1)), math.Nextafter(b, math.Inf(1)),
				b + 0.25, rng.Float64() * 40,
			} {
				if at < 0 {
					continue
				}
				gotAt, gotNever := r.availAt(at)
				wantAt, wantNever := availAtRef(r, at)
				if gotAt != wantAt || gotNever != wantNever {
					t.Fatalf("trial %d: availAt(%v) = %v/%v, reference %v/%v\nreplica cfg %+v retired %v tl %+v hs %+v",
						trial, at, gotAt, gotNever, wantAt, wantNever, r.cfg, r.retired, r.tl, r.hs)
				}
				got, want := r.routableAt(at), routableAtRef(r, at)
				if got != want {
					t.Fatalf("trial %d: routableAt(%v) = %v, reference %v\nreplica cfg %+v retired %v tl %+v hs %+v",
						trial, at, got, want, r.cfg, r.retired, r.tl, r.hs)
				}
				switch {
				case want:
					routable++
				case wantNever:
					never++
				default:
					waits++
				}
			}
		}
	}
	if routable == 0 || waits == 0 || never == 0 {
		t.Fatalf("degenerate sample: %d routable, %d waiting, %d never", routable, waits, never)
	}
}
