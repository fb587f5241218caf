package queue

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// item stands in for a queued request; syms is the payload a vacated
// slot must not pin.
type item struct {
	id   int
	syms []uint64
}

func (v item) zero() bool { return v.id == 0 && v.syms == nil }

// fifo is what the property run drives: the Queue, or a copy of the
// hand-rolled ingress queue it replaced.
type fifo interface {
	push(item)
	popFront()
	removeAt(i int)
	insert(i int, v item)
	filter(keep func(*item) bool, drop func(*item))
	drain(drop func(*item))
	live() []item
	// dead returns every slot outside the live region: the dead prefix
	// and the buffer past its length, up to its capacity.
	dead() []item
	head() int
}

type subject struct{ q Queue[item] }

func (s *subject) push(v item)          { s.q.Push(v) }
func (s *subject) popFront()            { s.q.PopFront() }
func (s *subject) removeAt(i int)       { s.q.RemoveAt(i) }
func (s *subject) insert(i int, v item) { s.q.Insert(i, v) }
func (s *subject) filter(keep func(*item) bool, drop func(*item)) {
	s.q.Filter(keep, drop)
}
func (s *subject) drain(drop func(*item)) {
	s.q.Filter(func(*item) bool { return false }, drop)
}
func (s *subject) live() []item { return s.q.Live() }
func (s *subject) dead() []item {
	return append(slices.Clone(s.q.buf[:s.q.head]), s.q.buf[len(s.q.buf):cap(s.q.buf)]...)
}
func (s *subject) head() int { return s.q.head }

// legacyIngress is the fleet ingress's own head-indexed queue as it was
// before it moved onto Queue (push, take, dropLate and drain, verbatim
// but for the element type). It dispatches correctly but leaves stale
// requests in its backing array: compaction zeroes nothing past the new
// length, a mid-queue take leaves a copy of the last element, and
// dropLate and drain leave what they dropped.
type legacyIngress struct {
	waiting []item
	hd      int
}

func (q *legacyIngress) push(tr item) {
	if q.waiting == nil {
		q.waiting = make([]item, 0, 64)
	}
	q.waiting = append(q.waiting, tr)
}

func (q *legacyIngress) take(i int) item {
	tr := q.waiting[i]
	if i == q.hd {
		q.waiting[i] = item{}
		q.hd++
		if q.hd >= 64 && q.hd*2 >= len(q.waiting) {
			n := copy(q.waiting, q.waiting[q.hd:])
			q.waiting = q.waiting[:n]
			q.hd = 0
		}
		return tr
	}
	q.waiting = append(q.waiting[:i], q.waiting[i+1:]...)
	return tr
}

func (q *legacyIngress) popFront()      { q.take(q.hd) }
func (q *legacyIngress) removeAt(i int) { q.take(q.hd + i) }
func (q *legacyIngress) insert(int, item) {
	panic("the legacy ingress has no insert")
}
func (q *legacyIngress) filter(keep func(*item) bool, drop func(*item)) {
	kept := q.waiting[q.hd:q.hd]
	for _, tr := range q.waiting[q.hd:] {
		if !keep(&tr) {
			drop(&tr)
			continue
		}
		kept = append(kept, tr)
	}
	q.waiting = q.waiting[:q.hd+len(kept)]
}
func (q *legacyIngress) drain(drop func(*item)) {
	for _, tr := range q.waiting[q.hd:] {
		drop(&tr)
	}
	q.waiting = q.waiting[:0]
	q.hd = 0
}
func (q *legacyIngress) live() []item { return q.waiting[q.hd:] }
func (q *legacyIngress) dead() []item {
	return append(slices.Clone(q.waiting[:q.hd]), q.waiting[len(q.waiting):cap(q.waiting)]...)
}
func (q *legacyIngress) head() int { return q.hd }

var errRetained = errors.New("vacated slot still holds an element")

// exercise drives f and a plain-slice reference through the same seeded
// random operations, checking after each that the live regions and the
// dropped sequences agree and that every slot outside the live region
// is the zero value. Growth and drain phases alternate, so the live
// region repeatedly rises past the compaction threshold and empties
// again. It returns the first divergence or retained slot, and how many
// times the front moved from at least 64 back to 0 (compactions and
// whole-queue resets).
func exercise(f fifo, seed uint64, steps int, withInsert bool) (int, error) {
	rng := rand.New(rand.NewPCG(seed, 0))
	var ref, refDropped, dropped []item
	next, resets := 0, 0
	newItem := func() item {
		next++
		return item{id: next, syms: []uint64{uint64(next)}}
	}
	for step := 0; step < steps; step++ {
		// Per-mille weights of push, insert, remove, filter and drain;
		// the rest pops. Pushes outweigh pops in a growth phase and the
		// reverse in a drain phase.
		w := [5]int{550, 100, 50, 5, 1}
		if (step/400)%2 == 1 {
			w = [5]int{250, 50, 100, 5, 2}
		}
		if !withInsert {
			w[0], w[1] = w[0]+w[1], 0
		}
		r := rng.IntN(1000)
		before := f.head()
		op := ""
		switch {
		case r < w[0] || len(ref) == 0:
			op = "push"
			v := newItem()
			f.push(v)
			ref = append(ref, v)
		case r < w[0]+w[1]:
			op = "insert"
			i := rng.IntN(len(ref) + 1)
			v := newItem()
			f.insert(i, v)
			ref = slices.Insert(ref, i, v)
		case r < w[0]+w[1]+w[2]:
			op = "remove"
			i := rng.IntN(len(ref))
			f.removeAt(i)
			ref = slices.Delete(ref, i, i+1)
		case r < w[0]+w[1]+w[2]+w[3]:
			op = "filter"
			m, k := rng.IntN(5)+2, rng.IntN(2)
			keep := func(v *item) bool { return v.id%m != k }
			f.filter(keep, func(v *item) { dropped = append(dropped, *v) })
			var kept []item
			for _, v := range ref {
				if keep(&v) {
					kept = append(kept, v)
				} else {
					refDropped = append(refDropped, v)
				}
			}
			ref = kept
		case r < w[0]+w[1]+w[2]+w[3]+w[4]:
			op = "drain"
			f.drain(func(v *item) { dropped = append(dropped, *v) })
			refDropped = append(refDropped, ref...)
			ref = nil
		default:
			op = "pop"
			f.popFront()
			ref = ref[1:]
		}
		if before >= 64 && f.head() == 0 {
			resets++
		}
		live := f.live()
		if len(live) != len(ref) {
			return resets, fmt.Errorf("step %d (%s): %d live, want %d", step, op, len(live), len(ref))
		}
		for i := range ref {
			if live[i].id != ref[i].id {
				return resets, fmt.Errorf("step %d (%s): live[%d] = %d, want %d", step, op, i, live[i].id, ref[i].id)
			}
		}
		if len(dropped) != len(refDropped) {
			return resets, fmt.Errorf("step %d (%s): %d dropped, want %d", step, op, len(dropped), len(refDropped))
		}
		for i := range dropped {
			if dropped[i].id != refDropped[i].id {
				return resets, fmt.Errorf("step %d (%s): dropped[%d] = %d, want %d", step, op, i, dropped[i].id, refDropped[i].id)
			}
		}
		for i, v := range f.dead() {
			if !v.zero() {
				return resets, fmt.Errorf("step %d (%s): dead slot %d holds %d: %w", step, op, i, v.id, errRetained)
			}
		}
	}
	return resets, nil
}

// TestQueueMatchesSlice checks the Queue against a plain slice over
// random Push/PopFront/Insert/RemoveAt/Filter sequences, and that it
// never holds an element in a slot it has vacated.
func TestQueueMatchesSlice(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			var s subject
			if seed%2 == 0 {
				s.q = New[item](16)
			}
			resets, err := exercise(&s, seed, 20000, true)
			if err != nil {
				t.Fatal(err)
			}
			if resets < 10 {
				t.Fatalf("the front moved back from past 64 only %d times; the run does not exercise compaction", resets)
			}
		})
	}
}

// TestPropertyRunCatchesIngressRetention runs the same property run over
// the hand-rolled ingress queue the Queue replaced: it serves the same
// elements in the same order but keeps dropped and stale requests in its
// backing array, which the run must report.
func TestPropertyRunCatchesIngressRetention(t *testing.T) {
	_, err := exercise(&legacyIngress{}, 1, 20000, false)
	if !errors.Is(err, errRetained) {
		t.Fatalf("property run over the legacy ingress returned %v, want a retained-slot error", err)
	}
}
