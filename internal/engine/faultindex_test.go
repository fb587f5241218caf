package engine

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// stallEndScan, throttleAtScan and finishAfterScan are StallEnd,
// ThrottleAt and FinishAfter as they stood before the compiled index:
// linear scans of the whole schedule on every call, StallEnd repeating
// its scan until no window moves t. Kept verbatim as the oracle for
// TestFaultIndexMatchesScan and FuzzFaultIndex.
func (f *FaultInjection) stallEndScan(t float64) float64 {
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

func (f *FaultInjection) throttleAtScan(t float64) float64 {
	m := 1.0
	for _, w := range f.Throttles {
		if t >= w.From && t < w.To && w.Factor > 1 {
			m *= w.Factor
		}
	}
	return m
}

func (f *FaultInjection) finishAfterScan(t, work float64) float64 {
	for work > 0 {
		t = f.stallEndScan(t)
		m := f.throttleAtScan(t)
		// Advance to the next window boundary after t; the multiplier is
		// constant, and the device unstalled, until then.
		next := math.Inf(1)
		for _, w := range f.Stalls {
			if w.From > t && w.From < next {
				next = w.From
			}
		}
		for _, w := range f.Throttles {
			if w.From > t && w.From < next {
				next = w.From
			}
			if w.To > t && w.To < next {
				next = w.To
			}
		}
		if math.IsInf(next, 1) || t+work*m <= next {
			return t + work*m
		}
		work -= (next - t) / m
		t = next
	}
	return t
}

// checkFaultIndex queries one compiled index at every instant in ts, in
// the order given, and compares each answer with the scans bit for bit.
// It returns how many queries landed inside a stall or a throttle.
func checkFaultIndex(t *testing.T, fx *FaultInjection, x *FaultIndex, ts, works []float64) (stalled, throttled int) {
	t.Helper()
	for i, at := range ts {
		if got, want := x.StallEnd(at), fx.stallEndScan(at); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("StallEnd(%v) = %v, scan %v\nstalls %v", at, got, want, fx.Stalls)
		} else if want != at {
			stalled++
		}
		if got, want := x.ThrottleAt(at), fx.throttleAtScan(at); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ThrottleAt(%v) = %v, scan %v\nthrottles %v", at, got, want, fx.Throttles)
		} else if want != 1 {
			throttled++
		}
		work := works[i%len(works)]
		if got, want := x.FinishAfter(at, work), fx.finishAfterScan(at, work); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("FinishAfter(%v, %v) = %v, scan %v\nstalls %v\nthrottles %v", at, work, got, want, fx.Stalls, fx.Throttles)
		}
	}
	return stalled, throttled
}

// TestFaultIndexMatchesScan pins the compiled index to the linear scans
// over random schedules on a quarter-second grid, so windows overlap,
// touch and chain often. The schedules are unsorted and include empty
// and inverted windows and throttle factors at or below 1. Each index
// answers queries at every window edge, one ulp either side and at
// random instants, first in random order and then ascending on a fresh
// cursor, so both the cursor's backward steps and its monotone walk are
// checked.
func TestFaultIndexMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(24, 0xfa17))
	grid := func() float64 { return float64(rng.IntN(160)) / 4 }
	var stalled, throttled, queries int
	for trial := 0; trial < 2000; trial++ {
		fx := &FaultInjection{}
		var edges []float64
		for n := rng.IntN(9); n > 0; n-- {
			w := StallWindow{From: grid()}
			switch rng.IntN(6) {
			case 0:
				w.To = w.From // empty
			case 1:
				w.To = w.From - grid()/4 // inverted
			default:
				w.To = w.From + 0.25 + grid()/4
			}
			fx.Stalls = append(fx.Stalls, w)
			edges = append(edges, w.From, w.To)
		}
		for n := rng.IntN(7); n > 0; n-- {
			w := ThrottleWindow{From: grid(), Factor: []float64{0.5, 1, 1.5, 2, 3}[rng.IntN(5)]}
			if rng.IntN(6) == 0 {
				w.To = w.From
			} else {
				w.To = w.From + 0.25 + grid()/2
			}
			fx.Throttles = append(fx.Throttles, w)
			edges = append(edges, w.From, w.To)
		}
		var ts []float64
		for _, e := range edges {
			ts = append(ts, e, math.Nextafter(e, math.Inf(-1)), math.Nextafter(e, math.Inf(1)))
		}
		for n := 8; n > 0; n-- {
			ts = append(ts, rng.Float64()*44-2)
		}
		works := []float64{0, 0.25, rng.Float64() * 3, rng.Float64() * 30}
		rng.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
		x := fx.Compile()
		s, th := checkFaultIndex(t, fx, &x, ts, works)
		slices.Sort(ts)
		y := fx.Compile()
		checkFaultIndex(t, fx, &y, ts, works)
		stalled, throttled, queries = stalled+s, throttled+th, queries+len(ts)
	}
	if stalled == 0 || throttled == 0 || stalled == queries || throttled == queries {
		t.Fatalf("degenerate sample: %d of %d queries stalled, %d throttled", stalled, queries, throttled)
	}
}

// fuzzFloat decodes two bytes into an instant: mostly a quarter-second
// grid value in [-32, 32), so windows touch and chain, and now and then
// ±Inf or NaN. A window bound of −0 would be ambiguous to the scans —
// −0 and +0 compare equal, and when both bound one instant a scan
// returns whichever its schedule order meets first — so the grid only
// yields +0.
func fuzzFloat(b []byte) float64 {
	v := binary.LittleEndian.Uint16(b)
	switch v {
	case 0xffff:
		return math.Inf(1)
	case 0xfffe:
		return math.Inf(-1)
	case 0xfffd:
		return math.NaN()
	}
	return float64(int(v%256)-128) / 4
}

// FuzzFaultIndex drives the compiled index from fuzz bytes: the first
// byte sizes the stall and throttle lists, the windows follow (two
// bytes per bound, one byte per throttle factor), and the rest are
// query instants and work amounts in the order given. Every answer must
// equal the linear scans bit for bit.
func FuzzFaultIndex(f *testing.F) {
	f.Add([]byte{0x23, 4, 0, 12, 0, 8, 0, 16, 0, 3, 20, 0, 40, 0, 2, 6, 0, 9, 0, 30, 0})
	f.Add([]byte{0x11, 0, 0, 255, 255, 0, 0, 4, 0, 5, 10, 0, 250, 255, 2, 0})
	f.Add([]byte{0x40, 1, 0, 5, 0, 5, 0, 9, 0, 3, 0, 2, 0, 2, 0, 7, 0, 1, 0, 8, 0, 200, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		ns, nt := int(data[0]>>4), int(data[0]&15)
		data = data[1:]
		fx := &FaultInjection{}
		for ; ns > 0 && len(data) >= 4; ns-- {
			fx.Stalls = append(fx.Stalls, StallWindow{From: fuzzFloat(data), To: fuzzFloat(data[2:])})
			data = data[4:]
		}
		for ; nt > 0 && len(data) >= 5; nt-- {
			fx.Throttles = append(fx.Throttles, ThrottleWindow{
				From: fuzzFloat(data), To: fuzzFloat(data[2:]), Factor: float64(data[4]) / 64,
			})
			data = data[5:]
		}
		var ts, works []float64
		for ; len(data) >= 3; data = data[3:] {
			ts = append(ts, fuzzFloat(data))
			works = append(works, float64(data[2])/8)
		}
		if len(ts) == 0 {
			return
		}
		x := fx.Compile()
		checkFaultIndex(t, fx, &x, ts, works)
	})
}

// TestFaultIndexCompileAllocates pins the compile to one allocation and
// the queries to none.
func TestFaultIndexCompileAllocates(t *testing.T) {
	fx := &FaultInjection{
		Stalls:    []StallWindow{{From: 5, To: 8}, {From: 1, To: 3}, {From: 3, To: 4}},
		Throttles: []ThrottleWindow{{From: 2, To: 9, Factor: 2}, {From: 4, To: 6, Factor: 1.5}},
	}
	if n := testing.AllocsPerRun(10, func() { _ = fx.Compile() }); n != 1 {
		t.Errorf("Compile: %v allocations, want 1", n)
	}
	x := fx.Compile()
	if n := testing.AllocsPerRun(10, func() {
		for at := 0.0; at < 10; at += 0.5 {
			_ = x.StallEnd(at) + x.ThrottleAt(at) + x.FinishAfter(at, 1)
		}
	}); n != 0 {
		t.Errorf("queries: %v allocations, want 0", n)
	}
}
