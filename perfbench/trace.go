package main

import (
	"encoding/json"
	"time"

	"edgereasoning/internal/engine"
)

// tracer records spans at the boundaries where the benchmark calls into a
// layer. A nil *tracer is the untraced run: every method is a no-op and
// sources pass through unwrapped, so end-to-end numbers carry no tracing
// cost.
type tracer struct {
	origin time.Time
	spans  []span
	// sources fold the per-request Next spans of each source, which are
	// too many to keep one by one.
	sources []*timedSource
}

// span is one call into a layer. Parent is the index of the enclosing
// span, or -1.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	open   bool
}

//edgereasoning:wallclock -- the benchmark measures host time around its calls into the simulator
func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under the innermost open span and returns its index.
//
//edgereasoning:wallclock -- the benchmark measures host time around its calls into the simulator
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	for i := len(t.spans) - 1; i >= 0; i-- {
		if t.spans[i].open {
			parent = i
			break
		}
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: time.Since(t.origin).Nanoseconds(), open: true})
	return len(t.spans) - 1
}

// end closes span i and returns its duration.
//
//edgereasoning:wallclock -- the benchmark measures host time around its calls into the simulator
func (t *tracer) end(i int) time.Duration {
	if t == nil {
		return 0
	}
	s := &t.spans[i]
	s.Dur = time.Since(t.origin).Nanoseconds() - s.Start
	s.open = false
	return time.Duration(s.Dur)
}

// last returns the duration of the most recent span named name.
func (t *tracer) last(name string) time.Duration {
	for i := len(t.spans) - 1; i >= 0; i-- {
		if t.spans[i].Name == name {
			return time.Duration(t.spans[i].Dur)
		}
	}
	return 0
}

// source wraps src so each Next call is timed under name.
func (t *tracer) source(name string, src engine.Source) engine.Source {
	if t == nil {
		return src
	}
	ts := &timedSource{name: name, src: src}
	t.sources = append(t.sources, ts)
	return ts
}

// sourceTotals sums the folded Next spans of every source named name.
func (t *tracer) sourceTotals(name string) (calls int, total time.Duration) {
	for _, s := range t.sources {
		if s.name == name {
			calls += s.calls
			total += s.total
		}
	}
	return calls, total
}

// timedSource times every Next call of the source it wraps. The serve
// loops pull from one goroutine, so the counters need no lock.
type timedSource struct {
	name  string
	src   engine.Source
	calls int
	total time.Duration
}

//edgereasoning:wallclock -- the benchmark measures host time around its calls into the simulator
func (s *timedSource) Next() (engine.TimedRequest, bool) {
	start := time.Now()
	tr, ok := s.src.Next()
	s.total += time.Since(start)
	s.calls++
	return tr, ok
}

// marshal encodes the spans, with each folded source as one summary.
func (t *tracer) marshal() (json.RawMessage, error) {
	type folded struct {
		Name    string `json:"name"`
		Calls   int    `json:"calls"`
		TotalNS int64  `json:"total_ns"`
	}
	doc := struct {
		Spans   []span   `json:"spans"`
		Sources []folded `json:"sources"`
	}{Spans: t.spans}
	for _, s := range t.sources {
		doc.Sources = append(doc.Sources, folded{Name: s.name, Calls: s.calls, TotalNS: s.total.Nanoseconds()})
	}
	return json.Marshal(doc)
}
