package label_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"testing"
	"unsafe"

	"edgereasoning/internal/engine"
	"edgereasoning/internal/label"
)

// shipped pairs each label form with a verbatim copy of the formatting
// the generators used when request IDs were strings; a label must render
// exactly that text.
var shipped = []struct {
	name  string
	ints  int // how many integers the form prints
	build func(a, b, c int) label.Label
	ref   func(a, b, c int) string
}{
	{"workload", 1, func(a, _, _ int) label.Label { return label.Stream(a) }, func(a, _, _ int) string {
		var id [24]byte
		return string(strconv.AppendInt(append(id[:0], 'w'), int64(a), 10))
	}},
	{"steady", 1, func(a, _, _ int) label.Label { return label.Steady(a) }, func(a, _, _ int) string {
		return "s" + fmt.Sprintf("w%d", a)
	}},
	{"burst", 1, func(a, _, _ int) label.Label { return label.Burst(a) }, func(a, _, _ int) string {
		return "b" + fmt.Sprintf("w%d", a)
	}},
	{"think", 2, func(a, b, _ int) label.Label { return label.Think(a, b) }, func(a, b, _ int) string {
		sid := fmt.Sprintf("s%d", a)
		return fmt.Sprintf("%st%d", sid, b)
	}},
	{"branch", 3, func(a, b, c int) label.Label { return label.Branch(a, b, c) }, func(a, b, c int) string {
		sid := fmt.Sprintf("s%d", a)
		id := fmt.Sprintf("%st%d", sid, b)
		return fmt.Sprintf("%sb%d", id, c)
	}},
	{"act", 2, func(a, b, _ int) label.Label { return label.Act(a, b) }, func(a, b, _ int) string {
		sid := fmt.Sprintf("s%d", a)
		return fmt.Sprintf("%st%da", sid, b)
	}},
	{"parallel", 1, func(a, _, _ int) label.Label { return label.Par(a) }, func(a, _, _ int) string {
		return fmt.Sprintf("par-%d", a)
	}},
	{"question", 1, func(a, _, _ int) label.Label { return label.Question(a) }, func(a, _, _ int) string {
		return fmt.Sprintf("q%d", a)
	}},
	{"question-batch", 1, func(a, _, _ int) label.Label { return label.QuestionBatch(a) }, func(a, _, _ int) string {
		return fmt.Sprintf("q%db", a)
	}},
	{"aime", 1, func(a, _, _ int) label.Label { return label.AIME(a) }, func(a, _, _ int) string {
		return fmt.Sprintf("aime%d", a)
	}},
	{"api-batch", 1, func(a, _, _ int) label.Label { return label.Batch(a) }, func(a, _, _ int) string {
		return fmt.Sprintf("batch-%d", a)
	}},
	{"natural-plan", 0, func(_, _, _ int) label.Label { return label.NaturalPlan() }, func(_, _, _ int) string { return "np" }},
	{"probe", 0, func(_, _, _ int) label.Label { return label.Probe() }, func(_, _, _ int) string { return "x" }},
	{"bench", 0, func(_, _, _ int) label.Label { return label.Bench() }, func(_, _, _ int) string { return "bench" }},
	{"api", 0, func(_, _, _ int) label.Label { return label.API() }, func(_, _, _ int) string { return "api" }},
	{"zero", 0, func(_, _, _ int) label.Label { return label.Label{} }, func(_, _, _ int) string { return "" }},
}

// TestRenderingMatchesStringIDs draws random integers over each form's
// range — the indices a validated profile can reach, 0 through
// math.MaxInt32 — and requires String, and AppendTo into a non-empty
// buffer, to equal the string ID the generators used to build.
func TestRenderingMatchesStringIDs(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	draw := func() int {
		switch rng.IntN(4) {
		case 0:
			return rng.IntN(10)
		case 1:
			return rng.IntN(1000)
		case 2:
			return []int{0, 9, 10, 99, 100, math.MaxInt32 - 1, math.MaxInt32}[rng.IntN(7)]
		}
		return rng.IntN(math.MaxInt32 + 1)
	}
	for _, f := range shipped {
		for i := 0; i < 2000; i++ {
			a, b, c := draw(), draw(), draw()
			want := f.ref(a, b, c)
			l := f.build(a, b, c)
			if got := l.String(); got != want {
				t.Fatalf("%s(%d, %d, %d).String() = %q, want %q", f.name, a, b, c, got, want)
			}
			buf := append(make([]byte, 0, 8), "prefix:"...)
			if got := string(l.AppendTo(buf)); got != "prefix:"+want {
				t.Fatalf("%s(%d, %d, %d).AppendTo = %q, want %q", f.name, a, b, c, got, "prefix:"+want)
			}
			if f.ints == 0 {
				break // nothing to draw
			}
		}
	}
}

// TestLabelSizes pins the layout the allocation-free path relies on: a
// label is no larger than the string header it replaced, so a
// TimedRequest, carried by value through every queue, does not grow.
func TestLabelSizes(t *testing.T) {
	if got := unsafe.Sizeof(label.Label{}); got != 16 {
		t.Errorf("Label is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(engine.TimedRequest{}); got > 120 {
		t.Errorf("TimedRequest is %d bytes, want at most 120", got)
	}
}

// TestAppendToDoesNotAllocate guards the rendering path a reporter
// calls per request: appending into a buffer with room allocates
// nothing.
func TestAppendToDoesNotAllocate(t *testing.T) {
	buf := make([]byte, 0, 64)
	l := label.Branch(math.MaxInt32, math.MaxInt32, math.MaxInt32)
	if n := testing.AllocsPerRun(100, func() { buf = l.AppendTo(buf[:0]) }); n != 0 {
		t.Fatalf("AppendTo allocates %v times per call, want 0", n)
	}
}
