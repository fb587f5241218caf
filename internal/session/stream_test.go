package session

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"edgereasoning/internal/engine"
	"edgereasoning/internal/label"
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
		out = append(out, generateSession(p, si, start, system, rng, new(scratch))...)
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

// growingHistorySession is generateSession as it was before sessions
// were drawn through a reused scratch: one history array sized a quarter
// above the mean length and a separate array per discarded branch trace.
func growingHistorySession(p Profile, si int, start float64, system []uint64, rng *stats.RNG) []engine.TimedRequest {
	sid := fmt.Sprintf("s%d", si)
	// Every turn's prompt and output identities are windows of the one
	// growing history. Sized a quarter above the mean length, it rarely
	// regrows; a regrowth leaves earlier windows on the old array.
	mean := len(system) + 8 + p.Turns*int(p.ObsMean+p.ThinkMean+p.ActMean)
	history := make([]uint64, 0, mean+mean/4)
	history = append(history, system...)
	// A short session preamble (user identity, task statement) makes the
	// histories diverge after the shared system prompt.
	for i := 0; i < 8; i++ {
		history = append(history, symOf(rng))
	}
	clock := start
	n := p.Turns * 2
	if p.Branch > 1 && p.BranchEvery > 0 {
		n += (p.Branch - 1) * (p.Turns / p.BranchEvery)
	}
	reqs := make([]engine.TimedRequest, 0, n)

	appendSyms := func(n int) {
		for i := 0; i < n; i++ {
			history = append(history, symOf(rng))
		}
	}
	sampleLen := func(mean, sigma float64, floor int) int {
		n := int(rng.LogNormalMean(mean, sigma))
		if n < floor {
			n = floor
		}
		return n
	}
	// emit issues a request whose prompt is the history's first prompt
	// identities.
	emit := func(id label.Label, prompt, output int, slack float64) engine.TimedRequest {
		tr := engine.TimedRequest{
			Request: engine.Request{
				ID:           id,
				PromptTokens: prompt,
				OutputTokens: output,
			},
			Arrival:    clock,
			SessionID:  sid,
			PromptSyms: history[:prompt:prompt],
		}
		if slack > 0 {
			tr.Deadline = clock + slack
		}
		return tr
	}

	for turn := 0; turn < p.Turns; turn++ {
		// Observation arrives; the think phase reasons over the history.
		appendSyms(sampleLen(p.ObsMean, p.ObsSigma, 4))
		branches := 1
		if p.Branch > 1 && p.BranchEvery > 0 && (turn+1)%p.BranchEvery == 0 {
			branches = p.Branch
		}
		thinkLen := sampleLen(p.ThinkMean, p.ThinkSigma, 8)
		prompt := len(history)
		appendSyms(thinkLen)
		canonical := history[prompt:len(history):len(history)]
		for b := 0; b < branches; b++ {
			id := label.Think(si, turn)
			outSyms := canonical
			outLen := thinkLen
			if b > 0 {
				// Extra samples share the prompt but generate their own
				// traces, which are discarded (best-of-N dead ends).
				id = label.Branch(si, turn, b)
				outLen = sampleLen(p.ThinkMean, p.ThinkSigma, 8)
				outSyms = make([]uint64, outLen)
				for i := range outSyms {
					outSyms[i] = symOf(rng)
				}
			}
			tr := emit(id, prompt, outLen, p.ThinkSlack)
			tr.OutputSyms = outSyms
			reqs = append(reqs, tr)
		}
		clock += expSample(rng, p.PhaseGapMean)

		// Act phase: short output over the history including the trace.
		actLen := sampleLen(p.ActMean, p.ActSigma, 2)
		prompt = len(history)
		appendSyms(actLen)
		tr := emit(label.Act(si, turn), prompt, actLen, p.ActSlack)
		tr.OutputSyms = history[prompt:len(history):len(history)]
		reqs = append(reqs, tr)
		clock += expSample(rng, p.TurnGapMean)
	}
	return reqs
}

// TestGenerateSessionMatchesGrowingHistory checks that drawing sessions
// through one reused scratch yields exactly the requests, arrivals and
// token identities of the growing-history generator, that every
// session's prompts share one array, and that a later session drawn
// through the same scratch leaves earlier sessions' identities intact.
func TestGenerateSessionMatchesGrowingHistory(t *testing.T) {
	profiles := map[string]Profile{
		"agentloop": AgentLoop(24, 5, 2),
		"wide":      AgentLoop(16, 6, 4),
		"nobranch":  AgentLoop(16, 4, 0),
		"long": func() Profile {
			p := AgentLoop(16, 8, 3)
			p.ThinkSigma = 1.2 // sessions far longer and shorter than the mean
			return p
		}(),
	}
	for name, p := range profiles {
		for _, seed := range []uint64{1, 7, 11, 1 << 40} {
			system := make([]uint64, p.SystemPromptTokens)
			shared := stats.NewRNG(seed, "system")
			for i := range system {
				system[i] = symOf(shared)
			}
			sc := new(scratch)
			var got, want [][]engine.TimedRequest
			for si := 0; si < p.Sessions; si++ {
				start := float64(si)
				label := fmt.Sprintf("session/%d", si)
				got = append(got, generateSession(p, si, start, system, stats.NewRNG(seed, label), sc))
				want = append(want, growingHistorySession(p, si, start, system, stats.NewRNG(seed, label)))
			}
			for si := range got {
				if !reflect.DeepEqual(got[si], want[si]) {
					t.Fatalf("%s/seed %d/session %d: requests differ from the growing-history generator", name, seed, si)
				}
				for _, tr := range got[si] {
					if &tr.PromptSyms[0] != &got[si][0].PromptSyms[0] {
						t.Fatalf("%s/seed %d/session %d: %s's prompt is not on the session's array", name, seed, si, tr.ID)
					}
				}
			}
		}
	}
}

// Draining a Source allocates, per session, only what the session hands
// out: its SessionID string, its request slice and its token-identity
// array. Each session's RNG is the Source's one RNG reseeded, and its
// cursor a drained one reused. The fixed cost of a Source (its shared
// stream and system prompt) cancels in the difference between draining n
// and 2n sessions; what is left over 3 is the few regrowths of the
// scratch, heap and free list, which the longer run's longest or most
// overlapped sessions may need, and which the 0.05 margin covers.
func TestSourceAllocsPerSession(t *testing.T) {
	drain := func(sessions int) float64 {
		p := AgentLoop(sessions, 3, 2)
		return testing.AllocsPerRun(3, func() {
			src, err := NewSource(p, 7)
			if err != nil {
				t.Fatal(err)
			}
			for {
				if _, ok := src.Next(); !ok {
					break
				}
			}
		})
	}
	const n = 500
	small, large := drain(n), drain(2*n)
	if per := (large - small) / n; per > 3.05 {
		t.Errorf("%.3f allocs per session, want at most 3 (SessionID, requests, syms)", per)
	}
}
