package engine

import (
	"math"
	"slices"
)

// FaultInjection is the per-run fault timeline a serving layer hands the
// engine: the engine applies the timing effects and executes the
// crashes, while retry decisions stay with the caller, which learns what
// each crash destroyed from Serving.Aborted. The fields are the input; a
// run compiles them once (Compile) and reads the index, so changing them
// after Open has no effect on that run.
type FaultInjection struct {
	// Stalls are no-progress windows: a prefill or decode event that
	// would start inside [From, To) starts at To instead. Events are
	// atomic — one that starts before a window runs to completion.
	Stalls []StallWindow
	// Throttles stretch decode-chunk time by Factor for chunks starting
	// inside the window — a thermal cap. Energy is unchanged: the same
	// tokens cost the same joules, spread over more seconds.
	Throttles []ThrottleWindow
	// Crashes are power losses, in ascending At order. A crash aborts
	// everything the engine holds at its instant — the active set and
	// every offer not yet admitted — and wipes the prefix index on both
	// tiers. No prefill or decode event straddles a crash: work in
	// progress stops at the instant, and the service each aborted
	// request had received is reported as lost. An open run executes a
	// crash once advanced to its instant, so a caller must not offer
	// past a crash it has not advanced to.
	Crashes []float64
}

// StallWindow is one no-progress interval [From, To).
type StallWindow struct{ From, To float64 }

// ThrottleWindow is one decode-slowdown interval [From, To) with its
// time multiplier (>= 1).
type ThrottleWindow struct {
	From, To float64
	Factor   float64
}

// Chains is a set of [From, To) windows merged into disjoint chains,
// sorted by start: windows that overlap or touch join one chain, because
// a wait that ends at one window's To starts inside the next. The bounds
// are immutable once built. The cursor is the reader's own: it holds the
// chain the last query matched, and a query steps from there, so reads
// in near-monotone time order cost O(1) amortized and a read at an
// earlier time is still exact. A copy shares the bounds and reads on
// its own cursor.
type Chains struct {
	from, to []float64
	cur      int
}

// NewChains merges the windows [from[k], to[k]), which may be unsorted
// and overlap, into chains; from and to are not modified. Windows that
// hold no instant — to <= from, or a NaN bound — are dropped.
func NewChains(from, to []float64) Chains {
	buf := make([]float64, 2*len(from))
	n := 0
	for k, f := range from {
		if f < to[k] {
			buf[n], buf[len(from)+n] = f, to[k]
			n++
		}
	}
	return mergeChains(buf[:n], buf[len(from):len(from)+n])
}

// mergeChains merges the windows whose starts and ends are given as two
// unpaired lists, both non-empty windows only, in place: pairing does
// not matter, because a sweep over the sorted starts and sorted ends —
// a start before an end at the same instant, so touching windows join —
// finds the same union. The k-th chain is written over starts[k] and
// ends[k], at or before the entries the sweep has already read.
func mergeChains(starts, ends []float64) Chains {
	slices.Sort(starts)
	slices.Sort(ends)
	n, open, j := 0, 0, 0
	for i := 0; i < len(starts) || j < len(ends); {
		if i < len(starts) && starts[i] <= ends[j] {
			if open == 0 {
				starts[n] = starts[i]
			}
			open++
			i++
			continue
		}
		if open--; open == 0 {
			ends[n] = ends[j]
			n++
		}
		j++
	}
	return Chains{from: starts[:n:n], to: ends[:n:n]}
}

// End returns the least instant >= t that no window holds: the end of
// the chain holding t, or t itself outside every chain. Waiting out each
// window holding the wait's current instant, until none does, lands on
// the same bits.
//
//edgereasoning:hotpath bench=BenchmarkServeHotLoop
func (c *Chains) End(t float64) float64 {
	n := len(c.from)
	if n == 0 {
		return t
	}
	k := c.cur
	for k > 0 && t < c.from[k] {
		k--
	}
	for k < n-1 && t >= c.to[k] {
		k++
	}
	c.cur = k
	if t >= c.from[k] && t < c.to[k] {
		return c.to[k]
	}
	return t
}

// FaultIndex is a FaultInjection compiled for time queries: stall
// windows merged into chains, throttle windows cut into segments of
// constant multiplier, and the sorted instants at which FinishAfter's
// speed can change. Like Chains, its arrays are immutable and its
// cursors are the reader's own; the engine's scheduler and the fleet's
// router each compile one per run.
type FaultIndex struct {
	stalls Chains
	// segAt holds the distinct bounds of the throttle windows that can
	// slow decode (Factor > 1), ascending; segMul[k] is the multiplier on
	// [segAt[k], segAt[k+1]): the product of the windows active there,
	// multiplied in schedule order. Before segAt[0] it is 1.
	segAt, segMul []float64
	seg           int
	// bounds holds, ascending and distinct, every stall From and every
	// throttle From and To, whatever its factor.
	bounds []float64
	bound  int
}

// Compile builds the query index of the injection's stall and throttle
// windows. Crashes are not indexed: a run fires them in order.
func (f *FaultInjection) Compile() FaultIndex {
	s, t := len(f.Stalls), len(f.Throttles)
	// One allocation holds every array at its largest possible size;
	// carve hands out capacity-capped pieces of it.
	arr := make([]float64, 3*s+6*t)
	carve := func(n int) []float64 {
		p := arr[:0:n]
		arr = arr[n:]
		return p
	}
	starts, ends := carve(s), carve(s)
	for _, w := range f.Stalls {
		if w.From < w.To {
			starts = append(starts, w.From)
			ends = append(ends, w.To)
		}
	}
	x := FaultIndex{stalls: mergeChains(starts, ends)}
	segAt, segMul := carve(2*t), carve(2*t)
	for _, w := range f.Throttles {
		if w.Factor > 1 && w.From < w.To {
			segAt = append(segAt, w.From, w.To)
		}
	}
	x.segAt = sortedDistinct(segAt)
	x.segMul = segMul[:len(x.segAt)]
	for k, at := range x.segAt {
		m := 1.0
		for _, w := range f.Throttles {
			if at >= w.From && at < w.To && w.Factor > 1 {
				m *= w.Factor
			}
		}
		x.segMul[k] = m
	}
	bounds := carve(s + 2*t)
	for _, w := range f.Stalls {
		bounds = append(bounds, w.From)
	}
	for _, w := range f.Throttles {
		bounds = append(bounds, w.From, w.To)
	}
	x.bounds = sortedDistinct(bounds)
	return x
}

// sortedDistinct sorts xs in place and returns its distinct values, NaN
// dropped, as a prefix of xs.
func sortedDistinct(xs []float64) []float64 {
	slices.Sort(xs)
	out := xs[:0]
	for _, v := range xs {
		if v == v && (len(out) == 0 || v != out[len(out)-1]) {
			out = append(out, v)
		}
	}
	return out
}

// StallEnd returns when work that would start at t can actually begin:
// past every stall window containing it (windows may chain or overlap).
//
//edgereasoning:hotpath bench=BenchmarkServeHotLoop
func (x *FaultIndex) StallEnd(t float64) float64 { return x.stalls.End(t) }

// ThrottleAt returns the decode-time multiplier at t (1 outside all
// windows; overlapping windows compound).
//
//edgereasoning:hotpath bench=BenchmarkServeHotLoop
func (x *FaultIndex) ThrottleAt(t float64) float64 {
	n := len(x.segAt)
	if n == 0 {
		return 1
	}
	k := x.seg
	for k > 0 && t < x.segAt[k] {
		k--
	}
	for k < n-1 && t >= x.segAt[k+1] {
		k++
	}
	x.seg = k
	if t >= x.segAt[k] {
		return x.segMul[k]
	}
	return 1
}

// nextBound returns the least window bound after t, +Inf when none is.
//
//edgereasoning:hotpath bench=BenchmarkServeHotLoop
func (x *FaultIndex) nextBound(t float64) float64 {
	n := len(x.bounds)
	k := x.bound
	for k > 0 && x.bounds[k-1] > t {
		k--
	}
	for k < n && !(x.bounds[k] > t) {
		k++
	}
	x.bound = k
	if k == n {
		return math.Inf(1)
	}
	return x.bounds[k]
}

// FinishAfter integrates work seconds of full-speed service starting at
// t across the fault windows: no progress inside a stall window, Factor×
// slower inside a throttle window, full speed outside. It is the
// continuous counterpart of the scheduler's per-event stall and stretch
// — a flat whole-service stretch would overshoot badly for work that
// merely grazes a window.
//
//edgereasoning:hotpath bench=BenchmarkServeHotLoop
func (x *FaultIndex) FinishAfter(t, work float64) float64 {
	for work > 0 {
		t = x.StallEnd(t)
		m := x.ThrottleAt(t)
		// Advance to the next window bound after t; the multiplier is
		// constant, and the device unstalled, until then.
		next := x.nextBound(t)
		if math.IsInf(next, 1) || t+work*m <= next {
			return t + work*m
		}
		work -= (next - t) / m
		t = next
	}
	return t
}
