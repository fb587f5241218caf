package workload

import (
	"math"
	"testing"
)

func TestGenerateDeterministic(t *testing.T) {
	p := InteractiveAssistant(0.2, 50)
	a, err := Generate(p, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Request != b[i].Request || a[i].Arrival != b[i].Arrival || a[i].Deadline != b[i].Deadline {
			t.Fatal("same seed must reproduce the stream")
		}
	}
}

func TestGenerateArrivalRate(t *testing.T) {
	const qps = 0.5
	reqs, err := Generate(InteractiveAssistant(qps, 2000), 1)
	if err != nil {
		t.Fatal(err)
	}
	span := reqs[len(reqs)-1].Arrival - reqs[0].Arrival
	measured := float64(len(reqs)-1) / span
	if math.Abs(measured-qps)/qps > 0.10 {
		t.Errorf("measured rate %.3f, want %.2f", measured, qps)
	}
	// Arrivals strictly increasing.
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Arrival <= reqs[i-1].Arrival {
			t.Fatal("arrivals must increase")
		}
	}
}

func TestGenerateLengthMeans(t *testing.T) {
	p := InteractiveAssistant(1, 5000)
	reqs, err := Generate(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	var prompt, output float64
	for _, r := range reqs {
		prompt += float64(r.PromptTokens)
		output += float64(r.OutputTokens)
	}
	n := float64(len(reqs))
	if math.Abs(prompt/n-p.PromptMean)/p.PromptMean > 0.05 {
		t.Errorf("prompt mean %.1f, want %.0f", prompt/n, p.PromptMean)
	}
	if math.Abs(output/n-p.OutputMean)/p.OutputMean > 0.05 {
		t.Errorf("output mean %.1f, want %.0f", output/n, p.OutputMean)
	}
}

func TestGenerateDeadlines(t *testing.T) {
	p := InteractiveAssistant(1, 100)
	p.DeadlineSlack = 5
	p.DeadlineSlackMax = 50
	reqs, err := Generate(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[float64]bool{}
	for _, r := range reqs {
		slack := r.Deadline - r.Arrival
		if slack < 5 || slack > 50 {
			t.Fatalf("slack %.2f outside [5, 50]", slack)
		}
		distinct[math.Round(slack)] = true
	}
	if len(distinct) < 10 {
		t.Error("slacks should vary across the population")
	}
}

func TestGenerateNoDeadlinesByDefault(t *testing.T) {
	reqs, err := Generate(InteractiveAssistant(1, 10), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		if r.Deadline != 0 {
			t.Fatal("default profile must not assign deadlines")
		}
	}
}

func TestValidate(t *testing.T) {
	bad := []Profile{
		{QPS: 0, N: 10, PromptMean: 100, OutputMean: 10},
		{QPS: 1, N: 0, PromptMean: 100, OutputMean: 10},
		{QPS: 1, N: 10, PromptMean: 0, OutputMean: 10},
		{QPS: 1, N: 10, PromptMean: 100, OutputMean: 0},
	}
	for i, p := range bad {
		if _, err := Generate(p, 1); err == nil {
			t.Errorf("profile %d should fail validation", i)
		}
	}
}

// TestValidateBoundsN rejects stream lengths past the int32 a request
// label holds its stream position in, and accepts the last one that fits.
func TestValidateBoundsN(t *testing.T) {
	p := InteractiveAssistant(4, math.MaxInt32+1)
	if err := p.Validate(); err == nil {
		t.Errorf("N = %d accepted", p.N)
	}
	p.N = math.MaxInt32
	if err := p.Validate(); err != nil {
		t.Errorf("N = %d rejected: %v", p.N, err)
	}
}
