package session

import (
	"container/heap"
	"fmt"

	"edgereasoning/internal/engine"
	"edgereasoning/internal/stats"
)

// Source streams the merged session stream lazily. Sessions activate
// only when simulated time reaches their Poisson start and are dropped
// as soon as their last request is emitted, so live memory scales with
// the concurrently-active session population (start rate × session
// duration), not the total session count. The emitted order is
// element-identical to Generate's stable sort: a k-way merge keyed
// (arrival, session index), exploiting that session starts are monotone
// and each session's requests are non-decreasing in arrival.
type Source struct {
	p      Profile
	seed   uint64
	shared *stats.RNG
	system []uint64
	// nextSI / nextStart identify the first not-yet-activated session and
	// its already-drawn Poisson start.
	nextSI    int
	nextStart float64
	cursors   cursorHeap
	// free holds drained cursors for later sessions to reuse.
	free []*cursor
	// rng is reseeded to each session's stream as the session activates.
	rng     *stats.RNG
	scratch scratch
}

// sessionStream is the stream-name prefix of every session's RNG: session
// si draws from the stream "session/<si>".
var sessionStream = stats.NameOf("session/")

// cursor walks one activated session's request list.
type cursor struct {
	reqs []engine.TimedRequest
	pos  int
	si   int
}

// cursorHeap is a min-heap on (head arrival, session index). Session
// indices are unique across cursors, so the order is total and the merge
// reproduces the stable sort's tie-breaking exactly.
type cursorHeap []*cursor

func (h cursorHeap) Len() int { return len(h) }
func (h cursorHeap) Less(i, j int) bool {
	ai, aj := h[i].reqs[h[i].pos].Arrival, h[j].reqs[h[j].pos].Arrival
	if ai != aj {
		return ai < aj
	}
	return h[i].si < h[j].si
}
func (h cursorHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *cursorHeap) Push(x interface{}) { *h = append(*h, x.(*cursor)) }
func (h *cursorHeap) Pop() interface{} {
	old := *h
	n := len(old)
	c := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return c
}

// NewSource validates the profile and prepares the lazily-merged stream.
// Determinism is (profile, seed), exactly as for Generate.
func NewSource(p Profile, seed uint64) (*Source, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	shared := stats.NewRNG(seed, fmt.Sprintf("session/shared/n%d", p.Sessions))
	system := make([]uint64, p.SystemPromptTokens)
	for i := range system {
		system[i] = symOf(shared)
	}
	s := &Source{p: p, seed: seed, shared: shared, system: system, rng: stats.NewRNG(seed, "session/0")}
	// Session starts follow a Poisson process on the shared stream; the
	// first start is drawn eagerly so activation can compare against it.
	s.nextStart = expSample(shared, 1/p.StartRate)
	return s, nil
}

// activate materializes every session whose start could precede (or tie
// with — larger session indices lose ties anyway) the current merge head.
func (s *Source) activate() {
	for s.nextSI < s.p.Sessions &&
		(len(s.cursors) == 0 || s.nextStart <= s.cursors[0].reqs[s.cursors[0].pos].Arrival) {
		s.rng.Reseed(s.seed, sessionStream.AddInt(s.nextSI))
		reqs := generateSession(s.p, s.nextSI, s.nextStart, s.system, s.rng, &s.scratch)
		if len(reqs) > 0 {
			heap.Push(&s.cursors, s.cursor(reqs, s.nextSI))
		}
		s.nextSI++
		if s.nextSI < s.p.Sessions {
			s.nextStart += expSample(s.shared, 1/s.p.StartRate)
		}
	}
}

// cursor returns a cursor at the start of session si's requests, reusing
// a drained one when there is one.
func (s *Source) cursor(reqs []engine.TimedRequest, si int) *cursor {
	n := len(s.free)
	if n == 0 {
		return &cursor{reqs: reqs, si: si}
	}
	c := s.free[n-1]
	s.free = s.free[:n-1]
	*c = cursor{reqs: reqs, si: si}
	return c
}

// Next yields the globally next request across all sessions.
func (s *Source) Next() (engine.TimedRequest, bool) {
	s.activate()
	if len(s.cursors) == 0 {
		return engine.TimedRequest{}, false
	}
	c := s.cursors[0]
	tr := c.reqs[c.pos]
	c.pos++
	if c.pos >= len(c.reqs) {
		heap.Pop(&s.cursors)
		c.reqs = nil // session drained; release its requests
		s.free = append(s.free, c)
	} else {
		heap.Fix(&s.cursors, 0)
	}
	return tr, true
}
