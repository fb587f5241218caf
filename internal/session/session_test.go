package session

import (
	"math"
	"testing"

	"edgereasoning/internal/engine"
	"edgereasoning/internal/hw"
	"edgereasoning/internal/model"
)

func TestGenerateDeterministic(t *testing.T) {
	p := AgentLoop(4, 3, 2)
	a, err := Generate(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Arrival != b[i].Arrival ||
			a[i].PromptTokens != b[i].PromptTokens || a[i].OutputTokens != b[i].OutputTokens {
			t.Fatalf("request %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	c, err := Generate(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if a[i].PromptTokens != c[i].PromptTokens || a[i].Arrival != c[i].Arrival {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced an identical stream")
	}
}

func TestGenerateStructure(t *testing.T) {
	p := AgentLoop(3, 4, 2)
	reqs, err := Generate(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	// 3 sessions x 4 turns x (think + act), plus one extra branch sample
	// on each of turns 1 and 3 per session.
	want := 3 * (4*2 + 2)
	if len(reqs) != want {
		t.Fatalf("generated %d requests, want %d", len(reqs), want)
	}
	last := -1.0
	perSession := map[string][]engine.TimedRequest{}
	for _, r := range reqs {
		if r.Arrival < last {
			t.Fatalf("stream not sorted: %q at %.3f after %.3f", r.ID, r.Arrival, last)
		}
		last = r.Arrival
		if r.SessionID == "" {
			t.Fatalf("request %q has no session", r.ID)
		}
		if len(r.PromptSyms) != r.PromptTokens {
			t.Fatalf("request %q: %d prompt syms for %d tokens", r.ID, len(r.PromptSyms), r.PromptTokens)
		}
		if len(r.OutputSyms) != r.OutputTokens {
			t.Fatalf("request %q: %d output syms for %d tokens", r.ID, len(r.OutputSyms), r.OutputTokens)
		}
		if r.Deadline > 0 && r.Deadline <= r.Arrival {
			t.Fatalf("request %q: deadline %.3f not after arrival %.3f", r.ID, r.Deadline, r.Arrival)
		}
		perSession[r.SessionID] = append(perSession[r.SessionID], r)
	}
	if len(perSession) != 3 {
		t.Fatalf("saw %d sessions, want 3", len(perSession))
	}
	for sid, rs := range perSession {
		// Within a session, prompts grow monotonically (shared history)
		// and every prompt extends the previous canonical history.
		prev := rs[0]
		for _, r := range rs[1:] {
			if r.PromptTokens < prev.PromptTokens {
				t.Fatalf("%s: prompt shrank from %d to %d at %q", sid, prev.PromptTokens, r.PromptTokens, r.ID)
			}
			for i := 0; i < prev.PromptTokens; i++ {
				if r.PromptSyms[i] != prev.PromptSyms[i] {
					t.Fatalf("%s: %q diverges from session history at token %d", sid, r.ID, i)
				}
			}
			prev = r
		}
	}
	// All sessions share the system prompt verbatim.
	first := perSession["s0"][0]
	for _, sid := range []string{"s1", "s2"} {
		other := perSession[sid][0]
		for i := 0; i < p.SystemPromptTokens; i++ {
			if other.PromptSyms[i] != first.PromptSyms[i] {
				t.Fatalf("%s does not share the system prompt at token %d", sid, i)
			}
		}
		if other.PromptSyms[p.SystemPromptTokens] == first.PromptSyms[p.SystemPromptTokens] {
			t.Fatalf("%s preamble identical to s0 — sessions must diverge", sid)
		}
	}
}

func TestGenerateValidate(t *testing.T) {
	bad := []Profile{
		{},
		{Sessions: 1, Turns: 0, StartRate: 1, ObsMean: 1, ThinkMean: 1, ActMean: 1},
		{Sessions: 1, Turns: 1, StartRate: math.NaN(), ObsMean: 1, ThinkMean: 1, ActMean: 1},
		{Sessions: 1, Turns: 1, StartRate: 1, ObsMean: -1, ThinkMean: 1, ActMean: 1},
		{Sessions: 1, Turns: 1, StartRate: 1, ObsMean: 1, ThinkMean: 1, ActMean: 1, ObsSigma: math.Inf(1)},
		{Sessions: 1, Turns: 1, StartRate: 1, ObsMean: 1, ThinkMean: 1, ActMean: 1, TurnGapMean: -2},
		{Sessions: 1, Turns: 1, StartRate: 1, ObsMean: 1, ThinkMean: 1, ActMean: 1, Branch: -1},
		{Sessions: 1, Turns: 1, StartRate: 1, ObsMean: 1, ThinkMean: 1, ActMean: 1, ActSlack: math.NaN()},
	}
	for i, p := range bad {
		if _, err := Generate(p, 1); err == nil {
			t.Errorf("profile %d accepted: %+v", i, p)
		}
	}
	if _, err := Generate(AgentLoop(1, 1, 1), 1); err != nil {
		t.Errorf("AgentLoop rejected: %v", err)
	}
	// Zero gaps are legal: all of a session's requests arrive back to
	// back (a replayed trace with timing stripped).
	p := AgentLoop(2, 2, 1)
	p.PhaseGapMean, p.TurnGapMean = 0, 0
	reqs, err := Generate(p, 1)
	if err != nil {
		t.Fatalf("zero-gap profile rejected: %v", err)
	}
	for _, r := range reqs[1:] {
		if r.SessionID == reqs[0].SessionID && r.Arrival != reqs[0].Arrival {
			t.Fatalf("zero-gap session has spread arrivals: %+v", r)
		}
	}
}

// TestSessionsServeWarmBeatsCold is the end-to-end seam: the same
// session stream on the same device, cold versus prefix-cached.
func TestSessionsServeWarmBeatsCold(t *testing.T) {
	reqs, err := Generate(AgentLoop(4, 3, 2), 7)
	if err != nil {
		t.Fatal(err)
	}
	spec := model.MustLookup(model.DSR1Qwen1_5B)
	run := func(prefix bool) engine.ServeMetrics {
		e, err := engine.New(engine.Config{Spec: spec, Device: hw.JetsonAGXOrin64GB(), PrefixCache: prefix})
		if err != nil {
			t.Fatal(err)
		}
		m, err := e.Serve(reqs, 8, engine.FCFS)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	warm, cold := run(true), run(false)
	if len(warm.Requests) != len(reqs) || len(cold.Requests) != len(reqs) {
		t.Fatalf("served %d/%d of %d", len(warm.Requests), len(cold.Requests), len(reqs))
	}
	if warm.SavedPrefillTokens <= 0 {
		t.Fatal("warm run saved no prefill tokens")
	}
	if warm.PrefixHitRate() < 0.5 {
		t.Errorf("prefix hit rate %.2f below 0.5 — turns are not finding their history", warm.PrefixHitRate())
	}
	if warm.P99Latency >= cold.P99Latency {
		t.Errorf("warm p99 %.3fs not better than cold %.3fs", warm.P99Latency, cold.P99Latency)
	}
}

// TestValidateBoundsLabelFields rejects session, turn and branch counts
// past the int32s a request label holds them in, and accepts the largest
// that fit.
func TestValidateBoundsLabelFields(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(p *Profile, n int)
	}{
		{"Sessions", func(p *Profile, n int) { p.Sessions = n }},
		{"Turns", func(p *Profile, n int) { p.Turns = n }},
		{"Branch", func(p *Profile, n int) { p.Branch = n }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := AgentLoop(1, 1, 2)
			tc.set(&p, math.MaxInt32+1)
			if err := p.Validate(); err == nil {
				t.Errorf("%s = %d accepted", tc.name, math.MaxInt32+1)
			}
			tc.set(&p, math.MaxInt32)
			if err := p.Validate(); err != nil {
				t.Errorf("%s = %d rejected: %v", tc.name, math.MaxInt32, err)
			}
		})
	}
}
