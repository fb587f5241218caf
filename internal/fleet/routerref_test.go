package fleet

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"testing"

	"edgereasoning/internal/engine"
	"edgereasoning/internal/label"
)

// nextFreeRef, bestServiceRef and chooseAtRef are the router's dispatch
// scans as they stood before nextFree became one availability pass that
// leaves the candidate set: each re-derives availability and capacity
// for every replica. Kept as the oracle for TestRouterMatchesReference,
// verbatim apart from reading the backlog through the pure outstanding
// and the first unfinished estimate where they once pruned.
func nextFreeRef(ro *router, t float64) (float64, bool) {
	for {
		for _, r := range ro.replicas {
			if r.routableAt(t) && r.outstanding(t) < r.cfg.capacity {
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
			if done := r.completed(t); done < len(r.finishes) {
				free := r.finishes[done]
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
		if r.routableAt(t) && r.outstanding(t) < r.cfg.capacity {
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
		if r.routableAt(t) && r.outstanding(t) < r.cfg.capacity {
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
		r.cfg.capacity = 1 + rng.IntN(4)
		r.prefillPerTok = 0.001 * float64(1+rng.IntN(3))
		r.decodePerTok = 0.01 * float64(1+rng.IntN(3))
		for k := rng.IntN(r.cfg.capacity + 1); k > 0; k-- {
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
// returns "".
func routerDiff(a, b *router) string {
	if a.rrNext != b.rrNext || fmt.Sprint(a.sticky) != fmt.Sprint(b.sticky) || fmt.Sprint(a.pinned) != fmt.Sprint(b.pinned) {
		return fmt.Sprintf("policy state: rr %d/%d sticky %v/%v pinned %v/%v", a.rrNext, b.rrNext, a.sticky, b.sticky, a.pinned, b.pinned)
	}
	for i := range a.replicas {
		ra, rb := a.replicas[i], b.replicas[i]
		if math.Float64bits(ra.wrrCredit) != math.Float64bits(rb.wrrCredit) {
			return fmt.Sprintf("replica %d credit %v, reference %v", i, ra.wrrCredit, rb.wrrCredit)
		}
		if !slices.Equal(ra.finishes, rb.finishes) {
			return fmt.Sprintf("replica %d finishes %v, reference %v", i, ra.finishes, rb.finishes)
		}
	}
	return ""
}

// TestRouterMatchesReference drives the single-pass nextFree, and the
// bestService and chooseAt that read its candidate set, in lockstep with
// the per-predicate reference scans over random router states. Each
// nextFree is compared bit for bit, and so is the router state after it:
// now and then the step re-routes from an instant before the one
// returned, as dispatch does when a crash falls in between. Otherwise the
// step dispatches: the candidate set, bestService's bits, the chosen
// replica and the policy state must match, and the take is bookkept on
// both sides.
func TestRouterMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(24, 0x7047e5))
	var served, waited, rerouted, outages int
	for trial := 0; trial < 3000; trial++ {
		ro, bounds := randomRouter(rng)
		ref := cloneRouter(ro)
		now := float64(rng.IntN(20)) / 2
		for step := 0; step < 8; step++ {
			got, ok := ro.nextFree(now)
			want, wantOK := nextFreeRef(ref, now)
			if ok != wantOK || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d step %d: nextFree(%v) = %v/%v, reference %v/%v", trial, step, now, got, ok, want, wantOK)
			}
			if d := routerDiff(ro, ref); d != "" {
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
			tr := timed(label.Think(trial, step), now, 16+rng.IntN(512), 1+rng.IntN(200), 0)
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
			if d := routerDiff(ro, ref); d != "" {
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

// TestRouterReadsArePure runs nextFree, chooseAt and idleReplicas at a
// later instant over random router states and then reads again at an
// earlier one: every replica's outstanding count, nextFree's instant and
// candidate set, and the idle count must read as they did before. That
// is what dispatch relies on when a crash sends it back from the instant
// nextFree planned for.
func TestRouterReadsArePure(t *testing.T) {
	type reads struct {
		outstanding, candidates []int
		at                      float64
		ok                      bool
		idle                    int
	}
	read := func(ro *router, t float64) reads {
		var rd reads
		for _, r := range ro.replicas {
			rd.outstanding = append(rd.outstanding, r.outstanding(t))
		}
		rd.at, rd.ok = ro.nextFree(t)
		rd.candidates = slices.Clone(ro.scratch)
		rd.idle = ro.idleReplicas(t)
		return rd
	}
	rng := rand.New(rand.NewPCG(28, 0x9a7e))
	finishedBetween := 0
	for trial := 0; trial < 3000; trial++ {
		ro, _ := randomRouter(rng)
		early := float64(rng.IntN(20)) / 2
		late := early + float64(1+rng.IntN(40))/2
		before := read(ro, early)
		for _, r := range ro.replicas {
			if r.routableAt(late) && r.completed(late) > r.completed(early) {
				finishedBetween++
				break
			}
		}
		if at, ok := ro.nextFree(late); ok {
			ro.chooseAt(timed(label.Question(trial), late, 64, 40, 0), at)
		}
		ro.idleReplicas(late)
		if after := read(ro, early); !reflect.DeepEqual(after, before) {
			t.Fatalf("trial %d: reads at %v changed after reads at %v: %+v, before %+v", trial, early, late, after, before)
		}
	}
	if finishedBetween == 0 {
		t.Fatal("degenerate sample: no estimate finished between the two instants")
	}
}

// TestCrashBeforePlannedDispatchKeepsBacklog is the fleet-level case of
// TestRouterReadsArePure. Two replicas of capacity 1 each hold one
// request when a third arrives, so dispatch plans it for the instant r0's
// estimate finishes. A crash of r1 before that instant sends dispatch
// back to the crash, where r0 is still full: the third request must still
// wait for r0's estimate, so r0's run equals the one without the crash.
func TestCrashBeforePlannedDispatchKeepsBacklog(t *testing.T) {
	cfg := homogeneousFleet(2, RoundRobin)
	cfg.KeepRequests = true
	for i := range cfg.Replicas {
		cfg.Replicas[i].capacity = 1
	}
	reqs := []engine.TimedRequest{
		timed(label.Question(0), 0, 64, 40, 0),
		timed(label.Question(1), 0, 64, 400, 0),
		timed(label.Question(2), 0, 64, 40, 0),
	}
	clean, err := Serve(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	r0, err := newReplica(cfg.Replicas[0].withDefaults(0), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = crashSchedule(1, r0.estService(reqs[0])/2, 100)
	crashed, err := Serve(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if crashed.Aborted != 1 || len(crashed.Replicas[0].Requests) != 2 {
		t.Fatalf("setup: %d aborted, r0 served %d; want the crash to abort r1's request and r0 to serve two", crashed.Aborted, len(crashed.Replicas[0].Requests))
	}
	if !reflect.DeepEqual(crashed.Replicas[0], clean.Replicas[0]) {
		t.Fatalf("a crash on r1 moved r0's run:\ncrashed %+v\n  clean %+v", crashed.Replicas[0].Requests, clean.Replicas[0].Requests)
	}
}
