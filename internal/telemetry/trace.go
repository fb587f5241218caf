package telemetry

import (
	"sort"
	"sync"

	"edgereasoning/internal/stats"
)

// Tracer is the recording interface a producer (an engine serve loop)
// holds. The concrete recorder is a *Track; a nil Tracer disables
// tracing — every producer call site guards on nil, so the traced-off
// hot path is a branch, not a virtual call.
type Tracer interface {
	// Record copies one span into the track's bounded ring.
	Record(Span)
	// Gauge and CounterSeries return the track-labeled series, creating
	// it on first use.
	Gauge(name string) *Series
	CounterSeries(name string) *Series
	// Histogram returns the track-labeled fixed-bucket histogram,
	// creating it on first use (bounds must match across calls).
	Histogram(name string, bounds []float64) *stats.Histogram
}

// Config sizes a Trace. The zero value gets usable defaults.
type Config struct {
	// SpanCap bounds spans retained per track; older spans are
	// overwritten ring-style and counted as dropped. Default 32768.
	SpanCap int
}

func (c Config) withDefaults() Config {
	if c.SpanCap <= 0 {
		c.SpanCap = 32768
	}
	return c
}

// seriesCap bounds points per series; overflow thins uniformly in time.
const seriesCap = 4096

// Trace owns a run's telemetry: the track registry, the series and
// histogram registries, and the flow-ID counter. Track registration and
// series/histogram lookup take a mutex; recording into a track or
// sampling a series is lock-free single-writer.
type Trace struct {
	cfg Config

	mu     sync.Mutex
	tracks []*Track
	series []*Series
	byKey  map[string]*Series
	hists  []*histEntry
	histBy map[string]*histEntry
	flow   uint64
}

type histEntry struct {
	name, label string
	h           *stats.Histogram
}

// New builds an empty trace.
func New(cfg Config) *Trace {
	return &Trace{
		cfg:    cfg.withDefaults(),
		byKey:  make(map[string]*Series),
		histBy: make(map[string]*histEntry),
	}
}

// Track registers (or returns) the named track. Registration order is
// the export order, so register shared tracks (ingress, faults) before
// replica tracks for a stable Perfetto layout.
func (t *Trace) Track(name string) *Track {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, tr := range t.tracks {
		if tr.name == name {
			return tr
		}
	}
	tr := &Track{trace: t, name: name, spans: make([]Span, 0, t.cfg.SpanCap)}
	t.tracks = append(t.tracks, tr)
	return tr
}

// Tracks returns the registered tracks in registration order.
func (t *Trace) Tracks() []*Track {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Track, len(t.tracks))
	copy(out, t.tracks)
	return out
}

// NextFlow allocates a flow ID linking spans across tracks (crash abort
// to retry). IDs start at 1 so zero means "no flow".
func (t *Trace) NextFlow() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.flow++
	return t.flow
}

// GaugeSeries returns the (name, label) gauge, creating it on first use.
func (t *Trace) GaugeSeries(name, label string) *Series {
	return t.seriesFor(name, label, Gauge)
}

// CounterFor returns the (name, label) counter, creating it on first
// use.
func (t *Trace) CounterFor(name, label string) *Series {
	return t.seriesFor(name, label, Counter)
}

func (t *Trace) seriesFor(name, label string, kind SeriesKind) *Series {
	key := name + "\x00" + label
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.byKey[key]; ok {
		return s
	}
	s := &Series{
		Name: name, Label: label, Kind: kind,
		pts: make([]Point, 0, seriesCap),
	}
	t.byKey[key] = s
	t.series = append(t.series, s)
	return s
}

// HistogramFor returns the (name, label) histogram, creating it on
// first use. Bounds are taken from the first call; later calls reuse
// the existing instance.
func (t *Trace) HistogramFor(name, label string, bounds []float64) *stats.Histogram {
	key := name + "\x00" + label
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.histBy[key]; ok {
		return e.h
	}
	e := &histEntry{name: name, label: label, h: stats.MustHistogram(bounds)}
	t.histBy[key] = e
	t.hists = append(t.hists, e)
	return e.h
}

// Series returns every registered series sorted by (name, label), so
// the view does not depend on registration order.
func (t *Trace) Series() []*Series {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Series, len(t.series))
	copy(out, t.series)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Label < out[j].Label
	})
	return out
}

// MergedHistogram is one histogram name folded across all its labels
// (per-replica instances merged element-wise).
type MergedHistogram struct {
	Name   string
	Labels []string // contributing labels, sorted
	Hist   *stats.Histogram
}

// Histograms returns every histogram name merged across labels, sorted
// by name. Merging is the point of the fixed-bucket design: per-replica
// distributions fold into fleet-wide ones without re-observing.
func (t *Trace) Histograms() []MergedHistogram {
	t.mu.Lock()
	entries := make([]*histEntry, len(t.hists))
	copy(entries, t.hists)
	t.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].name != entries[j].name {
			return entries[i].name < entries[j].name
		}
		return entries[i].label < entries[j].label
	})
	var out []MergedHistogram
	for _, e := range entries {
		if n := len(out); n > 0 && out[n-1].Name == e.name {
			out[n-1].Labels = append(out[n-1].Labels, e.label)
			// Bounds mismatches cannot happen through HistogramFor (the
			// first registration fixes them per name in practice), but a
			// direct registry user could: skip rather than corrupt.
			_ = out[n-1].Hist.Merge(e.h)
			continue
		}
		out = append(out, MergedHistogram{Name: e.name, Labels: []string{e.label}, Hist: e.h.Clone()})
	}
	return out
}

// Track is one single-writer span recorder: a bounded ring that
// overwrites its oldest spans when full. A *Track is the concrete
// Tracer handed to an engine.
type Track struct {
	trace   *Trace
	name    string
	spans   []Span
	next    int // overwrite cursor once the ring is full
	dropped int
}

// Name returns the track's name.
func (tr *Track) Name() string { return tr.name }

// Dropped counts spans lost to ring overflow.
func (tr *Track) Dropped() int { return tr.dropped }

// Record copies s into the ring.
//
//edgereasoning:hotpath bench=BenchmarkTracedServeOff
func (tr *Track) Record(s Span) {
	if len(tr.spans) < cap(tr.spans) {
		tr.spans = append(tr.spans, s)
		return
	}
	tr.spans[tr.next] = s
	tr.next++
	if tr.next == len(tr.spans) {
		tr.next = 0
	}
	tr.dropped++
}

// Spans returns the retained spans in record order.
func (tr *Track) Spans() []Span {
	if tr.dropped == 0 {
		return tr.spans
	}
	out := make([]Span, 0, len(tr.spans))
	out = append(out, tr.spans[tr.next:]...)
	out = append(out, tr.spans[:tr.next]...)
	return out
}

// Gauge returns the track-labeled gauge series.
func (tr *Track) Gauge(name string) *Series { return tr.trace.GaugeSeries(name, tr.name) }

// CounterSeries returns the track-labeled counter series.
func (tr *Track) CounterSeries(name string) *Series { return tr.trace.CounterFor(name, tr.name) }

// Histogram returns the track-labeled histogram.
func (tr *Track) Histogram(name string, bounds []float64) *stats.Histogram {
	return tr.trace.HistogramFor(name, tr.name, bounds)
}

// Standard bucket tables producers share, so per-track instances merge.
var (
	// TTFTBuckets cover time-to-first-token seconds: 10 ms to ~82 s.
	TTFTBuckets = stats.ExpBuckets(0.01, 2, 13)
	// DecodeRateBuckets cover decode tokens/second: 1 to 512.
	DecodeRateBuckets = stats.ExpBuckets(1, 2, 10)
	// LatencyBuckets cover end-to-end request seconds: 50 ms to ~205 s.
	LatencyBuckets = stats.ExpBuckets(0.05, 2, 12)
)
