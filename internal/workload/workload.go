// Package workload generates open-loop request streams for serving
// studies: Poisson arrivals with lognormal prompt/output lengths and
// optional per-request deadlines. Together with engine.Serve it extends
// the paper's closed-batch cost study (§III-B: "edge deployment costs
// also benefit from batching and increased QPS") into a queueing-aware
// QPS sweep.
package workload

import (
	"fmt"
	"math"

	"edgereasoning/internal/engine"
)

// Profile shapes a request stream.
type Profile struct {
	// QPS is the mean arrival rate (Poisson process).
	QPS float64
	// N is the number of requests.
	N int
	// PromptMean / PromptSigma parameterize the lognormal prompt length.
	PromptMean  float64
	PromptSigma float64
	// OutputMean / OutputSigma parameterize the lognormal output length.
	OutputMean  float64
	OutputSigma float64
	// DeadlineSlack, when positive, assigns each request a deadline of
	// arrival + DeadlineSlack seconds.
	DeadlineSlack float64
	// DeadlineSlackMax, when above DeadlineSlack, draws each request's
	// slack uniformly from [DeadlineSlack, DeadlineSlackMax] — a mixed
	// urgency population where EDF meaningfully reorders FCFS.
	DeadlineSlackMax float64
}

// Validate rejects unusable profiles. Non-finite parameters are refused
// here so a poisoned profile can never emit NaN/Inf arrivals or
// deadlines into a serving run.
func (p Profile) Validate() error {
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	switch {
	case !(p.QPS > 0) || !finite(p.QPS):
		return fmt.Errorf("workload: QPS must be positive and finite")
	case p.N <= 0:
		return fmt.Errorf("workload: N must be positive")
	case !(p.PromptMean > 0) || !finite(p.PromptMean) || !(p.OutputMean > 0) || !finite(p.OutputMean):
		return fmt.Errorf("workload: length means must be positive and finite")
	case math.IsNaN(p.PromptSigma) || p.PromptSigma < 0 || math.IsInf(p.PromptSigma, 0):
		return fmt.Errorf("workload: prompt sigma must be finite and non-negative")
	case math.IsNaN(p.OutputSigma) || p.OutputSigma < 0 || math.IsInf(p.OutputSigma, 0):
		return fmt.Errorf("workload: output sigma must be finite and non-negative")
	case math.IsNaN(p.DeadlineSlack) || p.DeadlineSlack < 0 || math.IsInf(p.DeadlineSlack, 0):
		return fmt.Errorf("workload: deadline slack must be finite and non-negative")
	case math.IsNaN(p.DeadlineSlackMax) || p.DeadlineSlackMax < 0 || math.IsInf(p.DeadlineSlackMax, 0):
		return fmt.Errorf("workload: deadline slack max must be finite and non-negative")
	}
	return nil
}

// Generate synthesizes the stream deterministically in (profile, seed).
// It is a thin collector over NewSource; callers that never need the
// whole slice at once should pull from the Source directly.
func Generate(p Profile, seed uint64) ([]engine.TimedRequest, error) {
	src, err := NewSource(p, seed)
	if err != nil {
		return nil, err
	}
	return engine.Collect(src, p.N), nil
}

// Bursty synthesizes a steady background stream with a traffic spike
// riding on top: the background profile runs from t=0 while the burst
// profile's requests (arrivals and deadlines both) are shifted to start
// at burstStart. IDs are prefixed "s" (steady) and "b" (burst) so the
// merged stream stays collision-free, and the result is sorted by
// arrival. This is the elastic-pool stress shape: a fixed fleet sized
// for the background drowns in the burst, one sized for the burst idles
// the rest of the time.
// Like Generate it is a thin collector — NewBurstySource streams the
// same merged sequence lazily.
func Bursty(background, burst Profile, burstStart float64, seed uint64) ([]engine.TimedRequest, error) {
	src, err := NewBurstySource(background, burst, burstStart, seed)
	if err != nil {
		return nil, err
	}
	return engine.Collect(src, background.N+burst.N), nil
}

// InteractiveAssistant is a short-output conversational profile (direct
// non-reasoning responses, ~40 tokens).
func InteractiveAssistant(qps float64, n int) Profile {
	return Profile{
		QPS: qps, N: n,
		PromptMean: 180, PromptSigma: 0.35,
		OutputMean: 40, OutputSigma: 0.4,
	}
}

// ReasoningBatch is a long-chain offline profile (AIME-style reasoning).
func ReasoningBatch(qps float64, n int) Profile {
	return Profile{
		QPS: qps, N: n,
		PromptMean: 150, PromptSigma: 0.2,
		OutputMean: 2500, OutputSigma: 0.5,
	}
}
