package telemetry

// SeriesKind distinguishes gauges (sampled level) from counters
// (monotone cumulative total) for the Prometheus exporter.
type SeriesKind int

const (
	// Gauge samples a level that moves both ways (queue depth, cache
	// occupancy, power).
	Gauge SeriesKind = iota
	// Counter samples a monotone cumulative total (breaker opens,
	// crashes); Add is the natural producer call.
	Counter
)

// String names the kind in the Prometheus TYPE line.
func (k SeriesKind) String() string {
	if k == Counter {
		return "counter"
	}
	return "gauge"
}

// Point is one sample on the simulated clock.
type Point struct {
	T, V float64
}

// Series is one bounded sampled time-series, owned by a single producer
// goroutine (per-replica series belong to that replica's engine; fleet
// series to the dispatch loop). Overflow degrades resolution, never
// correctness: when the point budget fills, every other point is dropped
// and the minimum sample gap doubles, so a series covers any run length
// in O(maxPoints) memory with uniform-in-time thinning.
type Series struct {
	Name  string
	Label string // track attribution ("" for fleet-wide series)
	Kind  SeriesKind

	minGap float64 // 0 (keep every sample) until the first thin
	pts    []Point // cap fixed at creation; thinning keeps it bounded
	total  float64 // Counter accumulator
}

// Sample records value v at simulated time t. Samples closer than the
// minimum gap to the previous point update it in place (latest value
// wins) instead of appending.
func (s *Series) Sample(t, v float64) {
	if n := len(s.pts); n > 0 && t-s.pts[n-1].T < s.minGap {
		s.pts[n-1].V = v
		return
	}
	if len(s.pts) == cap(s.pts) {
		s.thin()
	}
	s.pts = append(s.pts, Point{T: t, V: v})
}

// Add advances a counter by delta at time t and samples the new total.
func (s *Series) Add(t, delta float64) {
	s.total += delta
	s.Sample(t, s.total)
}

// thin halves the stored points (keeping every other one plus the
// latest) and doubles the minimum gap.
func (s *Series) thin() {
	keep := 0
	for i := 0; i < len(s.pts); i += 2 {
		s.pts[keep] = s.pts[i]
		keep++
	}
	if last := s.pts[len(s.pts)-1]; keep > 0 && s.pts[keep-1] != last {
		s.pts[keep-1] = last
	}
	s.pts = s.pts[:keep]
	if s.minGap <= 0 {
		s.minGap = 0.001
	} else {
		s.minGap *= 2
	}
}

// Points returns the recorded samples in time order (shared; do not
// mutate).
func (s *Series) Points() []Point { return s.pts }

// Last returns the final sample, if any.
func (s *Series) Last() (Point, bool) {
	if len(s.pts) == 0 {
		return Point{}, false
	}
	return s.pts[len(s.pts)-1], true
}
