package fleet

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"edgereasoning/internal/engine"
)

// nextFreeRef, bestServiceRef and chooseAtRef are the router's dispatch
// scans as they stood before nextFree became one availability pass that
// leaves the candidate set: each re-derives availability and capacity
// for every replica. Kept verbatim as the oracle for
// TestRouterMatchesReference.
func nextFreeRef(ro *router, t float64) (float64, bool) {
	for {
		for _, r := range ro.replicas {
			if r.routableAt(t) && r.depth(t) < r.cfg.Capacity {
				return t, true
			}
		}
		// Everyone is full, cold, dead, down, blocked, or retired:
		// advance to the next time a replica could accept — when it next
		// becomes available (warm-up end, crash restart, breaker probe),
		// or, if it is available but at capacity, when its earliest
		// outstanding completion frees a slot (provided it is still
		// available then).
		next := math.Inf(1)
		for _, r := range ro.replicas {
			at, never := r.availAt(t)
			if never {
				continue
			}
			if at > t {
				next = math.Min(next, at)
				continue
			}
			if len(r.finishes) > 0 {
				free := r.finishes[0]
				if at2, never2 := r.availAt(free); !never2 {
					next = math.Min(next, math.Max(free, at2))
				}
			}
		}
		if math.IsInf(next, 1) {
			return 0, false
		}
		t = next
	}
}

func bestServiceRef(ro *router, tr engine.TimedRequest, t float64) float64 {
	best := math.Inf(1)
	for _, r := range ro.replicas {
		if r.routableAt(t) && r.depth(t) < r.cfg.Capacity {
			if s := r.finishEstimate(tr, t) - t; s < best {
				best = s
			}
		}
	}
	return best
}

func chooseAtRef(ro *router, tr engine.TimedRequest, t float64) *replica {
	ro.scratch = ro.scratch[:0]
	for i, r := range ro.replicas {
		if r.routableAt(t) && r.depth(t) < r.cfg.Capacity {
			ro.scratch = append(ro.scratch, i)
		}
	}
	return ro.replicas[ro.choose(ro.scratch, tr, t)]
}

// randomRouter builds a router over 1–4 replicas in random states: the
// availability states of randomAvailReplica (warm-up, restarting and
// permanent crash chains, stall chains, breakers open, half-open or
// probing, retirement), capacities of 1–4 and outstanding finishes on
// the same half-second grid, some of them already complete. It returns
// the boundary instants of every replica alongside.
func randomRouter(rng *rand.Rand) (*router, []float64) {
	ro := &router{policy: Policy(rng.IntN(5))}
	var bounds []float64
	for n := 1 + rng.IntN(4); n > 0; n-- {
		r, b := randomAvailReplica(rng)
		r.cfg.Capacity = 1 + rng.IntN(4)
		r.prefillPerTok = 0.001 * float64(1+rng.IntN(3))
		r.decodePerTok = 0.01 * float64(1+rng.IntN(3))
		for k := rng.IntN(r.cfg.Capacity + 1); k > 0; k-- {
			r.finishes = append(r.finishes, float64(rng.IntN(70))/2)
		}
		sort.Float64s(r.finishes)
		if len(r.finishes) > 0 {
			r.estFreeAt = r.finishes[len(r.finishes)-1]
		}
		ro.replicas = append(ro.replicas, r)
		bounds = append(bounds, b...)
		bounds = append(bounds, r.finishes...)
	}
	return ro, bounds
}

// cloneRouter deep-copies the router state the dispatch scans read and
// write; timelines share their immutable windows and get their own
// cursors.
func cloneRouter(ro *router) *router {
	c := *ro
	c.replicas = make([]*replica, len(ro.replicas))
	for i, r := range ro.replicas {
		rc := *r
		rc.finishes = slices.Clone(r.finishes)
		if r.tl != nil {
			tl := *r.tl
			rc.tl = &tl
		}
		if r.hs != nil {
			hs := *r.hs
			rc.hs = &hs
		}
		c.replicas[i] = &rc
	}
	c.scratch = nil
	c.sticky = make(map[string]int)
	for k, v := range ro.sticky {
		c.sticky[k] = v
	}
	c.pinned = slices.Clone(ro.pinned)
	return &c
}

// routerDiff names the first difference between two routers' state, or
// returns "". Estimates finished by floor, the last dispatch instant,
// are left out of the finishes compared: dispatch never reads the router
// at an earlier instant again, and every read prunes or skips them.
func routerDiff(a, b *router, floor float64) string {
	if a.rrNext != b.rrNext || fmt.Sprint(a.sticky) != fmt.Sprint(b.sticky) || fmt.Sprint(a.pinned) != fmt.Sprint(b.pinned) {
		return fmt.Sprintf("policy state: rr %d/%d sticky %v/%v pinned %v/%v", a.rrNext, b.rrNext, a.sticky, b.sticky, a.pinned, b.pinned)
	}
	for i := range a.replicas {
		ra, rb := a.replicas[i], b.replicas[i]
		if math.Float64bits(ra.wrrCredit) != math.Float64bits(rb.wrrCredit) {
			return fmt.Sprintf("replica %d credit %v, reference %v", i, ra.wrrCredit, rb.wrrCredit)
		}
		if fa, fb := ra.finishes[ra.completed(floor):], rb.finishes[rb.completed(floor):]; !slices.Equal(fa, fb) {
			return fmt.Sprintf("replica %d finishes %v, reference %v", i, ra.finishes, rb.finishes)
		}
	}
	return ""
}

// TestRouterMatchesReference drives the single-pass nextFree, and the
// bestService and chooseAt that read its candidate set, in lockstep with
// the verbatim per-predicate scans over random router states. Each
// nextFree is compared bit for bit, and so is the pruning it leaves:
// now and then the step re-routes from an instant before the one
// returned, as dispatch does when a crash falls in between, and the
// outstanding counts read there depend on what was pruned. Otherwise the
// step dispatches: the candidate set, bestService's bits, the chosen
// replica and the policy state must match, and the take is bookkept on
// both sides.
func TestRouterMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(24, 0x7047e5))
	var served, waited, rerouted, outages int
	for trial := 0; trial < 3000; trial++ {
		ro, bounds := randomRouter(rng)
		ref := cloneRouter(ro)
		now, floor := float64(rng.IntN(20))/2, math.Inf(-1)
		for step := 0; step < 8; step++ {
			got, ok := ro.nextFree(now)
			want, wantOK := nextFreeRef(ref, now)
			if ok != wantOK || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d step %d: nextFree(%v) = %v/%v, reference %v/%v", trial, step, now, got, ok, want, wantOK)
			}
			if d := routerDiff(ro, ref, floor); d != "" {
				t.Fatalf("trial %d step %d: after nextFree(%v): %s", trial, step, now, d)
			}
			if !ok {
				outages++
				break
			}
			if got > now {
				waited++
				if rng.IntN(3) == 0 {
					// A crash due in (now, got] sends dispatch back to it.
					rerouted++
					now += (got - now) * (0.25 + 0.75*rng.Float64())
					continue
				}
			}
			tr := timed(fmt.Sprintf("q%d-%d", trial, step), now, 16+rng.IntN(512), 1+rng.IntN(200), 0)
			tr.SessionID = fmt.Sprintf("s%d", rng.IntN(3))
			if gb, wb := ro.bestService(tr, got), bestServiceRef(ref, tr, got); math.Float64bits(gb) != math.Float64bits(wb) {
				t.Fatalf("trial %d step %d: bestService at %v = %v, reference %v", trial, step, got, gb, wb)
			}
			chosen, wantChosen := ro.chooseAt(tr, got), chooseAtRef(ref, tr, got)
			if !slices.Equal(ro.scratch, ref.scratch) {
				t.Fatalf("trial %d step %d: candidates at %v %v, reference %v", trial, step, got, ro.scratch, ref.scratch)
			}
			ci, wi := slices.Index(ro.replicas, chosen), slices.Index(ref.replicas, wantChosen)
			if ci != wi {
				t.Fatalf("trial %d step %d: chose replica %d at %v, reference %d", trial, step, ci, got, wi)
			}
			// The take's bookkeeping, without an engine to offer to.
			for _, r := range []*replica{chosen, wantChosen} {
				est := math.Max(r.estFreeAt, got) + r.estService(tr)
				r.estFreeAt = est
				r.finishes = append(r.finishes, est)
				if r.hs != nil {
					r.hs.noteTake(got, est)
				}
			}
			floor = got
			if d := routerDiff(ro, ref, floor); d != "" {
				t.Fatalf("trial %d step %d: after dispatch at %v: %s", trial, step, got, d)
			}
			served++
			now = got
			if b := bounds[rng.IntN(len(bounds))]; b > now && rng.IntN(2) == 0 {
				now = b
			}
		}
	}
	if served == 0 || waited == 0 || rerouted == 0 || outages == 0 {
		t.Fatalf("degenerate sample: %d dispatches, %d waits, %d re-routes, %d outages", served, waited, rerouted, outages)
	}
}
