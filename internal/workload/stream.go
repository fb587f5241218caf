package workload

import (
	"fmt"
	"math"
	"strconv"

	"edgereasoning/internal/engine"
	"edgereasoning/internal/stats"
)

// Source streams a profile's request sequence lazily: each Next
// synthesizes one request, so a million-request soak holds O(1) live
// workload memory. The emitted sequence is element-identical to
// Generate's slice — Generate is a thin collector over a Source.
// Arrivals are non-decreasing (cumulative Poisson clock), satisfying the
// engine.Source contract.
type Source struct {
	p     Profile
	rng   *stats.RNG
	clock float64
	i     int
}

// NewSource validates the profile and positions a source at its first
// request. Determinism is (profile, seed), exactly as for Generate.
func NewSource(p Profile, seed uint64) (*Source, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := stats.NewRNG(seed, fmt.Sprintf("workload/qps%.3f/n%d", p.QPS, p.N))
	return &Source{p: p, rng: rng}, nil
}

// Next synthesizes the next request, or returns false after N requests.
func (s *Source) Next() (engine.TimedRequest, bool) {
	if s.i >= s.p.N {
		return engine.TimedRequest{}, false
	}
	// Exponential inter-arrival times (Poisson process).
	u := s.rng.Float64()
	for u == 0 {
		u = s.rng.Float64()
	}
	s.clock += -math.Log(u) / s.p.QPS
	prompt := int(s.rng.LogNormalMean(s.p.PromptMean, s.p.PromptSigma))
	if prompt < 8 {
		prompt = 8
	}
	output := int(s.rng.LogNormalMean(s.p.OutputMean, s.p.OutputSigma))
	if output < 1 {
		output = 1
	}
	var id [24]byte
	tr := engine.TimedRequest{
		Request: engine.Request{
			ID:           string(strconv.AppendInt(append(id[:0], 'w'), int64(s.i), 10)),
			PromptTokens: prompt,
			OutputTokens: output,
		},
		Arrival: s.clock,
	}
	if s.p.DeadlineSlack > 0 {
		slack := s.p.DeadlineSlack
		if s.p.DeadlineSlackMax > s.p.DeadlineSlack {
			slack += s.rng.Float64() * (s.p.DeadlineSlackMax - s.p.DeadlineSlack)
		}
		tr.Deadline = s.clock + slack
	}
	s.i++
	return tr, true
}

// BurstySource streams the Bursty stream lazily: a two-way merge of the
// steady and (time-shifted) burst sources, steady winning arrival ties —
// element-for-element what stable-sorting the concatenated slices
// produces, without materializing either.
type BurstySource struct {
	steady, burst *Source
	burstStart    float64
	sHead, bHead  engine.TimedRequest
	sOK, bOK      bool
}

// NewBurstySource validates and positions a bursty source at its first
// request. Determinism is (profiles, burstStart, seed), as for Bursty.
func NewBurstySource(background, burst Profile, burstStart float64, seed uint64) (*BurstySource, error) {
	if math.IsNaN(burstStart) || math.IsInf(burstStart, 0) || burstStart < 0 {
		return nil, fmt.Errorf("workload: burst start must be finite and non-negative")
	}
	steady, err := NewSource(background, seed)
	if err != nil {
		return nil, fmt.Errorf("workload: background: %w", err)
	}
	spike, err := NewSource(burst, seed^0x9e3779b97f4a7c15)
	if err != nil {
		return nil, fmt.Errorf("workload: burst: %w", err)
	}
	b := &BurstySource{steady: steady, burst: spike, burstStart: burstStart}
	b.advanceSteady()
	b.advanceBurst()
	return b, nil
}

// advanceSteady pulls the next steady request into the merge head,
// applying the "s" ID prefix.
func (b *BurstySource) advanceSteady() {
	tr, ok := b.steady.Next()
	if ok {
		tr.ID = "s" + tr.ID
	}
	b.sHead, b.sOK = tr, ok
}

// advanceBurst pulls the next burst request into the merge head, applying
// the "b" ID prefix and the burst-start time shift.
func (b *BurstySource) advanceBurst() {
	tr, ok := b.burst.Next()
	if ok {
		tr.ID = "b" + tr.ID
		tr.Arrival += b.burstStart
		if tr.Deadline > 0 {
			tr.Deadline += b.burstStart
		}
	}
	b.bHead, b.bOK = tr, ok
}

// Next yields the earlier merge head (steady on ties).
func (b *BurstySource) Next() (engine.TimedRequest, bool) {
	switch {
	case !b.sOK && !b.bOK:
		return engine.TimedRequest{}, false
	case !b.bOK || (b.sOK && b.sHead.Arrival <= b.bHead.Arrival):
		tr := b.sHead
		b.advanceSteady()
		return tr, true
	default:
		tr := b.bHead
		b.advanceBurst()
		return tr, true
	}
}
