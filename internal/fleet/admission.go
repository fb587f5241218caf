package fleet

import (
	"fmt"

	"edgereasoning/internal/engine"
	"edgereasoning/internal/queue"
)

// Admission selects the ingress-queue discipline: the order in which
// requests waiting at the fleet's shared front door are handed to the
// router when replica capacity frees up. The zero value (FIFO) is the
// historical head-of-line-blocking queue, so existing configurations
// keep byte-identical behavior.
type Admission int

const (
	// FIFO dispatches strictly in arrival order: when every replica is
	// at capacity the stream head waits and everything queues behind it
	// (head-of-line blocking, as a shared ingress with no reordering).
	FIFO Admission = iota
	// EDF dispatches the waiting request with the earliest deadline
	// first (deadline-less requests go last, in arrival order), and the
	// replicas schedule their local queues EDF as well so the reorder
	// is honored end to end.
	EDF
	// SJF dispatches the waiting request with the shortest prompt
	// first — cheap interactive turns overtake long-context work parked
	// at the head, at the price of starving large prompts under load.
	SJF
	// Shed dispatches FIFO but drops hopeless deadline work instead of
	// serving it late: a waiting request whose deadline has already
	// passed at dispatch time, or whose batch-1 service time on even
	// the fastest available replica would overrun its deadline (a
	// certain miss), is routed to Metrics.Dropped (and counted in
	// Metrics.Shed) rather than stalling the stream. Deadline-less
	// requests are never shed.
	Shed
)

// Admissions lists the ingress disciplines in stable sweep order.
func Admissions() []Admission {
	return []Admission{FIFO, EDF, SJF, Shed}
}

// String names the discipline as used in tables and CLI flags.
func (a Admission) String() string {
	switch a {
	case FIFO:
		return "fifo"
	case EDF:
		return "edf"
	case SJF:
		return "sjf"
	case Shed:
		return "shed"
	default:
		return fmt.Sprintf("admission(%d)", int(a))
	}
}

// localDiscipline maps the ingress discipline onto each replica's local
// queue: an EDF ingress schedules EDF locally too (otherwise the reorder
// would be undone inside the replica); every other discipline defers to
// the routing policy's choice.
func (a Admission) localDiscipline(policy Policy) engine.SchedPolicy {
	if a == EDF {
		return engine.EDF
	}
	return policy.LocalDiscipline()
}

// ParseAdmission resolves a CLI spelling to an Admission. Accepted names
// are the String() forms plus the shorthands f, e, s, and drop.
func ParseAdmission(s string) (Admission, error) {
	switch trimLower(s) {
	case "fifo", "f":
		return FIFO, nil
	case "edf", "e":
		return EDF, nil
	case "sjf", "s":
		return SJF, nil
	case "shed", "drop":
		return Shed, nil
	}
	return 0, fmt.Errorf("fleet: unknown admission discipline %q (have fifo, edf, sjf, shed)", s)
}

// entry is one request waiting at the fleet's front door: in the
// ingress, or in the retry queue after a crash aborted it. since is when
// it last entered, its arrival or its re-admission instant, and flow the
// trace flow its abort opened (0 on a first attempt or untraced). A
// retry carries its own state, its attempt count in
// TimedRequest.Attempt, so dispatch looks nothing up by request ID.
type entry struct {
	engine.TimedRequest
	since float64
	flow  uint64
}

// ingress is the fleet's shared admission queue. Requests are pushed in
// arrival order; pick selects the next dispatch per the discipline. The
// in-order disciplines (FIFO, Shed) take the head in O(1) amortized; the
// reordering disciplines pay a linear scan per dispatch, which is the
// cost of looking at the whole waiting set.
type ingress struct {
	discipline Admission
	queue.Queue[entry]
}

// newIngress returns an empty ingress. A 64-slot floor skips the early
// append-growth doublings; a congested ingress grows geometrically from
// there.
func newIngress(discipline Admission) *ingress {
	return &ingress{discipline, queue.New[entry](64)}
}

// pick returns the position in the waiting queue of the request to
// dispatch next. The queue is arrival-ordered, so its front is the FIFO
// choice and ties under the reordering disciplines break toward the
// earliest arrival.
//
//edgereasoning:hotpath bench=BenchmarkAutoscaleServe
func (q *ingress) pick() int {
	w := q.Live()
	best := 0
	switch q.discipline {
	case EDF:
		for i := 1; i < len(w); i++ {
			di, db := w[i].Deadline, w[best].Deadline
			if di == 0 {
				continue
			}
			if db == 0 || di < db {
				best = i
			}
		}
	case SJF:
		for i := 1; i < len(w); i++ {
			if w[i].PromptTokens < w[best].PromptTokens {
				best = i
			}
		}
	}
	// FIFO and Shed dispatch in arrival order.
	return best
}

// take removes and returns the request at position i, preserving the
// arrival order of the rest.
//
//edgereasoning:hotpath bench=BenchmarkAutoscaleServe
func (q *ingress) take(i int) entry {
	e := q.Live()[i]
	q.RemoveAt(i)
	return e
}

// drain removes every waiting request, reporting each through drop —
// the permanent-outage path.
func (q *ingress) drain(drop func(engine.TimedRequest)) {
	q.Filter(func(*entry) bool { return false },
		func(e *entry) { drop(e.TimedRequest) })
}

// dropLate removes every waiting request whose deadline precedes t,
// reporting each through drop — the Shed discipline's queue purge.
func (q *ingress) dropLate(t float64, drop func(engine.TimedRequest)) {
	q.Filter(func(e *entry) bool { return !(e.Deadline > 0 && e.Deadline < t) },
		func(e *entry) { drop(e.TimedRequest) })
}

// missPressure counts waiting deadline-bearing requests that will
// already be late if help only arrives after horizon more seconds — the
// raw material of the autoscaler's deadline-miss scale-up signal (the
// autoscaler nets out replicas that could start this work immediately).
func (q *ingress) missPressure(t, horizon float64) int {
	n, w := 0, q.Live()
	for i := range w {
		if d := w[i].Deadline; d > 0 && d <= t+horizon {
			n++
		}
	}
	return n
}
