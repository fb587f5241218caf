package engine

// Source is a pull-based stream of timed requests. Next returns the next
// request and true, or a zero value and false once the stream is
// exhausted. Requests must be yielded in non-decreasing Arrival order —
// the serving loop consumes the stream lazily, one element at a time, so
// a generator-backed Source runs million-request workloads with O(1)
// live memory.
type Source interface {
	Next() (TimedRequest, bool)
}

// SliceSource adapts an arrival-sorted slice to a Source.
type SliceSource struct {
	reqs []TimedRequest
	i    int
}

// NewSliceSource wraps reqs, which must already be sorted by Arrival.
func NewSliceSource(reqs []TimedRequest) *SliceSource {
	return &SliceSource{reqs: reqs}
}

// Next yields the next request in slice order.
func (s *SliceSource) Next() (TimedRequest, bool) {
	if s.i >= len(s.reqs) {
		return TimedRequest{}, false
	}
	tr := s.reqs[s.i]
	s.i++
	return tr, true
}

// Collect drains a source into a slice — the bridge from the streaming
// API back to the slice API, used by the legacy generators and by tests
// pinning stream-vs-slice equivalence.
func Collect(src Source) []TimedRequest {
	var out []TimedRequest
	for {
		tr, ok := src.Next()
		if !ok {
			return out
		}
		out = append(out, tr)
	}
}

// Peekable wraps a Source with one-item lookahead: the fleet ingress
// needs to see the next arrival time — to jump an idle dispatch clock —
// without consuming it. A Peekable is itself a Source.
type Peekable struct {
	src  Source
	buf  TimedRequest
	have bool
	done bool
}

// NewPeekable wraps src with one-item lookahead.
func NewPeekable(src Source) *Peekable { return &Peekable{src: src} }

// Peek returns the next request without consuming it.
func (p *Peekable) Peek() (TimedRequest, bool) {
	if p.have {
		return p.buf, true
	}
	if p.done {
		return TimedRequest{}, false
	}
	tr, ok := p.src.Next()
	if !ok {
		p.done = true
		return TimedRequest{}, false
	}
	p.buf, p.have = tr, true
	return tr, true
}

// Next consumes and returns the next request.
func (p *Peekable) Next() (TimedRequest, bool) {
	tr, ok := p.Peek()
	p.have = false
	if ok {
		p.buf = TimedRequest{} // drop payload references once consumed
	}
	return tr, ok
}

// More reports whether the stream has unconsumed requests.
func (p *Peekable) More() bool {
	_, ok := p.Peek()
	return ok
}
