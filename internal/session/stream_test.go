package session

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"edgereasoning/internal/engine"
	"edgereasoning/internal/stats"
)

// legacyGenerate is the frozen pre-streaming Generate implementation:
// materialize every session eagerly, concatenate in session order, and
// stable sort by arrival. The lazy k-way merge Source must reproduce it
// element-for-element forever.
func legacyGenerate(p Profile, seed uint64) ([]engine.TimedRequest, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	shared := stats.NewRNG(seed, fmt.Sprintf("session/shared/n%d", p.Sessions))
	system := make([]uint64, p.SystemPromptTokens)
	for i := range system {
		system[i] = symOf(shared)
	}
	var out []engine.TimedRequest
	start := 0.0
	for si := 0; si < p.Sessions; si++ {
		start += expSample(shared, 1/p.StartRate)
		rng := stats.NewRNG(seed, fmt.Sprintf("session/%d", si))
		out = append(out, generateSession(p, si, start, system, rng)...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Arrival < out[j].Arrival })
	return out, nil
}

// TestSourceMatchesLegacyGenerate pins stream-vs-slice equivalence for
// the session generator across seeds and profile shapes, including
// overlapping sessions (high start rate) where the lazy merge is
// actually interleaving many cursors.
func TestSourceMatchesLegacyGenerate(t *testing.T) {
	profiles := map[string]Profile{
		"agentloop": AgentLoop(12, 5, 2),
		"overlap": func() Profile {
			p := AgentLoop(20, 4, 3)
			p.StartRate = 10 // near-simultaneous starts: deep merge interleave
			return p
		}(),
		"nobranch": func() Profile {
			p := AgentLoop(8, 6, 0)
			p.PhaseGapMean, p.TurnGapMean = 0, 0 // arrival ties inside a session
			return p
		}(),
	}
	seeds := []uint64{1, 2, 3, 7, 42, 1337, 99991, 1 << 40}
	for name, p := range profiles {
		for _, seed := range seeds {
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
