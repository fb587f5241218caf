package workload

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"edgereasoning/internal/engine"
	"edgereasoning/internal/stats"
)

// legacyGenerate is the frozen pre-streaming Generate implementation: it
// materializes the whole slice eagerly from the same RNG stream. The
// streaming Source must reproduce it element-for-element forever.
func legacyGenerate(p Profile, seed uint64) ([]engine.TimedRequest, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := stats.NewRNG(seed, fmt.Sprintf("workload/qps%.3f/n%d", p.QPS, p.N))
	out := make([]engine.TimedRequest, p.N)
	clock := 0.0
	for i := range out {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		clock += -math.Log(u) / p.QPS
		prompt := int(rng.LogNormalMean(p.PromptMean, p.PromptSigma))
		if prompt < 8 {
			prompt = 8
		}
		output := int(rng.LogNormalMean(p.OutputMean, p.OutputSigma))
		if output < 1 {
			output = 1
		}
		tr := engine.TimedRequest{
			Request: engine.Request{
				ID:           fmt.Sprintf("w%d", i),
				PromptTokens: prompt,
				OutputTokens: output,
			},
			Arrival: clock,
		}
		if p.DeadlineSlack > 0 {
			slack := p.DeadlineSlack
			if p.DeadlineSlackMax > p.DeadlineSlack {
				slack += rng.Float64() * (p.DeadlineSlackMax - p.DeadlineSlack)
			}
			tr.Deadline = clock + slack
		}
		out[i] = tr
	}
	return out, nil
}

// legacyBursty is the frozen pre-streaming Bursty implementation:
// concatenate prefixed steady and shifted burst streams, then stable
// sort by arrival.
func legacyBursty(background, burst Profile, burstStart float64, seed uint64) ([]engine.TimedRequest, error) {
	steady, err := legacyGenerate(background, seed)
	if err != nil {
		return nil, err
	}
	spike, err := legacyGenerate(burst, seed^0x9e3779b97f4a7c15)
	if err != nil {
		return nil, err
	}
	out := make([]engine.TimedRequest, 0, len(steady)+len(spike))
	for _, tr := range steady {
		tr.ID = "s" + tr.ID
		out = append(out, tr)
	}
	for _, tr := range spike {
		tr.ID = "b" + tr.ID
		tr.Arrival += burstStart
		if tr.Deadline > 0 {
			tr.Deadline += burstStart
		}
		out = append(out, tr)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Arrival < out[j].Arrival })
	return out, nil
}

var streamSeeds = []uint64{1, 2, 3, 7, 42, 1337, 99991, 1 << 40}

// TestSourceMatchesLegacyGenerate pins stream-vs-slice equivalence: the
// collected Source output and the collector Generate are both
// element-identical to the frozen legacy implementation across seeds and
// deadline shapes.
func TestSourceMatchesLegacyGenerate(t *testing.T) {
	profiles := map[string]Profile{
		"plain":      InteractiveAssistant(4, 300),
		"deadline":   {QPS: 2, N: 250, PromptMean: 120, PromptSigma: 0.3, OutputMean: 60, OutputSigma: 0.5, DeadlineSlack: 4},
		"mixedslack": {QPS: 8, N: 400, PromptMean: 200, PromptSigma: 0.4, OutputMean: 900, OutputSigma: 0.6, DeadlineSlack: 2, DeadlineSlackMax: 9},
	}
	for name, p := range profiles {
		for _, seed := range streamSeeds {
			want, err := legacyGenerate(p, seed)
			if err != nil {
				t.Fatalf("%s/seed %d: legacy: %v", name, seed, err)
			}
			src, err := NewSource(p, seed)
			if err != nil {
				t.Fatalf("%s/seed %d: NewSource: %v", name, seed, err)
			}
			got := engine.Collect(src, 0)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/seed %d: streamed output diverges from legacy slice", name, seed)
			}
			viaGen, err := Generate(p, seed)
			if err != nil {
				t.Fatalf("%s/seed %d: Generate: %v", name, seed, err)
			}
			if !reflect.DeepEqual(viaGen, want) {
				t.Fatalf("%s/seed %d: collector Generate diverges from legacy slice", name, seed)
			}
		}
	}
}

// TestBurstySourceMatchesLegacy pins the lazy two-way merge against the
// frozen concatenate-and-stable-sort implementation.
func TestBurstySourceMatchesLegacy(t *testing.T) {
	background := InteractiveAssistant(0.5, 150)
	background.DeadlineSlack, background.DeadlineSlackMax = 3, 8
	burst := InteractiveAssistant(12, 200)
	burst.DeadlineSlack, burst.DeadlineSlackMax = 3, 8
	for _, seed := range streamSeeds {
		want, err := legacyBursty(background, burst, 30, seed)
		if err != nil {
			t.Fatalf("seed %d: legacy: %v", seed, err)
		}
		src, err := NewBurstySource(background, burst, 30, seed)
		if err != nil {
			t.Fatalf("seed %d: NewBurstySource: %v", seed, err)
		}
		got := engine.Collect(src, 0)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: streamed bursty output diverges from legacy slice", seed)
		}
		viaBursty, err := Bursty(background, burst, 30, seed)
		if err != nil {
			t.Fatalf("seed %d: Bursty: %v", seed, err)
		}
		if !reflect.DeepEqual(viaBursty, want) {
			t.Fatalf("seed %d: collector Bursty diverges from legacy slice", seed)
		}
	}
}

// Request IDs are "w<index>", built without fmt; they must be the
// strings fmt.Sprintf("w%d") builds, at every digit count.
func TestSourceRequestIDs(t *testing.T) {
	p := InteractiveAssistant(4, math.MaxInt)
	src, err := NewSource(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	var idx []int
	for i := 0; i < 2000; i++ {
		idx = append(idx, i)
	}
	for pow := 10_000; pow > 0 && pow < math.MaxInt/10; pow *= 10 {
		idx = append(idx, pow-1, pow, pow+1)
	}
	idx = append(idx, math.MaxInt-1)
	for _, i := range idx {
		src.i = i
		tr, ok := src.Next()
		if !ok {
			t.Fatalf("index %d: stream ended", i)
		}
		if want := fmt.Sprintf("w%d", i); tr.ID != want {
			t.Fatalf("index %d: ID %q, want %q", i, tr.ID, want)
		}
	}
}
