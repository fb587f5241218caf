// Package label names requests without allocating. A Label is a kind
// plus up to three integers — the stream position, session, turn or
// branch a generator already holds — and is rendered to text only where
// text is produced: errors, reports and trace export. Neither the engine
// nor a fleet looks a request up by its label, so labels need not be
// unique.
package label

import "strconv"

// Label is a request's name as a plain comparable value: 16 bytes, the
// size of a string header, and no pointer for the collector to trace.
// The zero Label renders as "".
type Label struct {
	kind    kind
	a, b, c int32
}

type kind uint8

const (
	none kind = iota
	stream
	steady
	burst
	think
	branch
	act
	par
	question
	questionBatch
	aime
	batch
	naturalPlan
	probe
	bench
	api
)

// form is how a kind renders: lit[0], the first integer, lit[1], …, up
// to n integers, then lit[n].
type form struct {
	lit [4]string
	n   int
}

var forms = [...]form{
	none:          {},
	stream:        {lit: [4]string{"w"}, n: 1},
	steady:        {lit: [4]string{"sw"}, n: 1},
	burst:         {lit: [4]string{"bw"}, n: 1},
	think:         {lit: [4]string{"s", "t"}, n: 2},
	branch:        {lit: [4]string{"s", "t", "b"}, n: 3},
	act:           {lit: [4]string{"s", "t", "a"}, n: 2},
	par:           {lit: [4]string{"par-"}, n: 1},
	question:      {lit: [4]string{"q"}, n: 1},
	questionBatch: {lit: [4]string{"q", "b"}, n: 1},
	aime:          {lit: [4]string{"aime"}, n: 1},
	batch:         {lit: [4]string{"batch-"}, n: 1},
	naturalPlan:   {lit: [4]string{"np"}},
	probe:         {lit: [4]string{"x"}},
	bench:         {lit: [4]string{"bench"}},
	api:           {lit: [4]string{"api"}},
}

// Stream labels the i-th request of a workload stream: "w<i>".
func Stream(i int) Label { return Label{kind: stream, a: int32(i)} }

// Steady labels the i-th request of a bursty stream's background:
// "sw<i>".
func Steady(i int) Label { return Label{kind: steady, a: int32(i)} }

// Burst labels the i-th request of a bursty stream's spike: "bw<i>".
func Burst(i int) Label { return Label{kind: burst, a: int32(i)} }

// Think labels a session turn's canonical think request: "s<s>t<t>".
func Think(session, turn int) Label {
	return Label{kind: think, a: int32(session), b: int32(turn)}
}

// Branch labels extra think sample k of a branching turn:
// "s<s>t<t>b<k>".
func Branch(session, turn, k int) Label {
	return Label{kind: branch, a: int32(session), b: int32(turn), c: int32(k)}
}

// Act labels a session turn's act request: "s<s>t<t>a".
func Act(session, turn int) Label {
	return Label{kind: act, a: int32(session), b: int32(turn)}
}

// Par labels branch i of a parallel fan-out: "par-<i>".
func Par(i int) Label { return Label{kind: par, a: int32(i)} }

// Question labels the request answering bank question i: "q<i>".
func Question(i int) Label { return Label{kind: question, a: int32(i)} }

// QuestionBatch labels the batched twin of question i's request:
// "q<i>b".
func QuestionBatch(i int) Label { return Label{kind: questionBatch, a: int32(i)} }

// AIME labels the request answering AIME question i: "aime<i>".
func AIME(i int) Label { return Label{kind: aime, a: int32(i)} }

// Batch labels the i-th request of an API batch: "batch-<i>".
func Batch(i int) Label { return Label{kind: batch, a: int32(i)} }

// NaturalPlan labels a Natural-Plan request: "np".
func NaturalPlan() Label { return Label{kind: naturalPlan} }

// Probe labels a one-off probe request: "x".
func Probe() Label { return Label{kind: probe} }

// Bench labels a characterization request: "bench".
func Bench() Label { return Label{kind: bench} }

// API labels a single API generation: "api".
func API() Label { return Label{kind: api} }

// IsZero reports whether l is the zero Label, which renders as "".
func (l Label) IsZero() bool { return l == Label{} }

// Session returns the session and turn of a session request's label
// (think, branch or act); ok is false for every other label.
func (l Label) Session() (session, turn int, ok bool) {
	switch l.kind {
	case think, branch, act:
		return int(l.a), int(l.b), true
	}
	return 0, 0, false
}

// AppendTo appends l's text to b and returns the extended buffer.
//
//edgereasoning:hotpath bench=BenchmarkSoakServe
func (l Label) AppendTo(b []byte) []byte {
	f := &forms[l.kind]
	v := [3]int32{l.a, l.b, l.c}
	for i := 0; i < f.n; i++ {
		b = append(b, f.lit[i]...)
		b = strconv.AppendInt(b, int64(v[i]), 10)
	}
	return append(b, f.lit[f.n]...)
}

// String renders l, e.g. "w17" or "s3t1b1".
func (l Label) String() string {
	var buf [40]byte // "s", "t", "b" and three 11-byte int32s
	return string(l.AppendTo(buf[:0]))
}
