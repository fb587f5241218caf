// Package session generates multi-turn agentic workloads: N concurrent
// sessions, each an agent loop of turns with a think phase (long
// reasoning trace) and an act phase (short tool call / answer), where
// every request's prompt is the session's full growing history. The
// paper motivates edge deployment with exactly these autonomous loops
// (§I: robotics and autonomous systems), and related work on mobile edge
// general intelligence shows them dominated by heavily shared prefixes —
// the case the engine's cross-request prefix cache converts from
// prefill-bound back to decode-bound.
//
// Sessions emit the same event stream engine.Serve and fleet.Serve
// consume: engine.TimedRequest values, here carrying SessionID plus
// per-token content identities (PromptSyms/OutputSyms) so a prefix-aware
// engine can match a turn's history against retained KV blocks. Engines
// without a prefix cache run the identical stream cold, which is the
// baseline every comparison in the sessions experiment is made against.
package session

import (
	"fmt"
	"math"

	"edgereasoning/internal/engine"
	"edgereasoning/internal/label"
	"edgereasoning/internal/stats"
)

// Profile shapes a population of agentic sessions.
type Profile struct {
	// Sessions is the number of conversations.
	Sessions int
	// Turns is the number of agent-loop turns per session; each turn
	// emits a think request and an act request.
	Turns int
	// StartRate is the Poisson session-start rate in sessions/second.
	StartRate float64
	// SystemPromptTokens is the shared system prompt every session opens
	// with — identical content across sessions, so even first turns can
	// hit the prefix cache cross-session.
	SystemPromptTokens int
	// ObsMean/ObsSigma parameterize the lognormal per-turn observation
	// (user message / environment feedback) length.
	ObsMean  float64
	ObsSigma float64
	// ThinkMean/ThinkSigma parameterize the think-phase reasoning-trace
	// length (the long generation).
	ThinkMean  float64
	ThinkSigma float64
	// ActMean/ActSigma parameterize the act-phase output length (the
	// short tool call or final answer).
	ActMean  float64
	ActSigma float64
	// PhaseGapMean is the mean exponential gap between a turn's think
	// arrival and its act arrival (covers the think generation time —
	// the stream is open-loop, so gaps stand in for completion feedback).
	PhaseGapMean float64
	// TurnGapMean is the mean exponential gap between turns (environment
	// latency, user think time).
	TurnGapMean float64
	// Branch, when > 1, fans the think phase of branching turns out into
	// Branch parallel samples off the same history — test-time scaling
	// inside a session, exercising fork-style KV sharing. Branch 0's
	// trace continues the canonical history; the rest are dead ends.
	Branch int
	// BranchEvery selects branching turns (every k-th turn; 0 disables).
	BranchEvery int
	// ThinkSlack/ActSlack, when positive, give think/act requests a
	// deadline of arrival + slack seconds. Act phases are the
	// latency-critical ones in an agent loop.
	ThinkSlack float64
	ActSlack   float64
}

// Validate rejects unusable profiles before they reach a serving run.
func (p Profile) Validate() error {
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	pos := func(v float64) bool { return v > 0 && finite(v) }
	nonneg := func(v float64) bool { return v >= 0 && finite(v) }
	switch {
	case p.Sessions <= 0:
		return fmt.Errorf("session: Sessions must be positive")
	case p.Turns <= 0:
		return fmt.Errorf("session: Turns must be positive")
	case !pos(p.StartRate):
		return fmt.Errorf("session: StartRate must be positive and finite")
	case p.SystemPromptTokens < 0:
		return fmt.Errorf("session: SystemPromptTokens must be non-negative")
	case !pos(p.ObsMean) || !pos(p.ThinkMean) || !pos(p.ActMean):
		return fmt.Errorf("session: length means must be positive and finite")
	case !nonneg(p.ObsSigma) || !nonneg(p.ThinkSigma) || !nonneg(p.ActSigma):
		return fmt.Errorf("session: length sigmas must be finite and non-negative")
	case !nonneg(p.PhaseGapMean) || !nonneg(p.TurnGapMean):
		return fmt.Errorf("session: gap means must be finite and non-negative")
	case p.Branch < 0 || p.BranchEvery < 0:
		return fmt.Errorf("session: Branch and BranchEvery must be non-negative")
	case p.Sessions > math.MaxInt32 || p.Turns > math.MaxInt32 || p.Branch > math.MaxInt32:
		// Request labels hold the session, turn and branch as int32s.
		return fmt.Errorf("session: Sessions, Turns and Branch must be at most %d", math.MaxInt32)
	case !nonneg(p.ThinkSlack) || !nonneg(p.ActSlack):
		return fmt.Errorf("session: deadline slacks must be finite and non-negative")
	}
	return nil
}

// AgentLoop is the reference agentic profile: a 256-token system prompt,
// ~96-token observations, ~320-token reasoning traces, ~32-token
// actions, and branch-of-2 test-time scaling every other turn. Gaps are
// sized for a 1.5B-class on-device agent so consecutive turns usually
// find the previous turn's history already retained.
func AgentLoop(sessions, turns, branch int) Profile {
	return Profile{
		Sessions:           sessions,
		Turns:              turns,
		StartRate:          0.2,
		SystemPromptTokens: 256,
		ObsMean:            96, ObsSigma: 0.3,
		ThinkMean: 320, ThinkSigma: 0.4,
		ActMean: 32, ActSigma: 0.3,
		PhaseGapMean: 12,
		TurnGapMean:  10,
		Branch:       branch,
		BranchEvery:  2,
		ThinkSlack:   60,
		ActSlack:     8,
	}
}

// Generate synthesizes the merged session stream deterministically in
// (profile, seed), sorted by arrival. Every request carries SessionID
// and token identities; engines without a prefix cache simply ignore
// them. It is a thin collector over NewSource; callers that never need
// the whole slice at once should pull from the Source directly.
func Generate(p Profile, seed uint64) ([]engine.TimedRequest, error) {
	src, err := NewSource(p, seed)
	if err != nil {
		return nil, err
	}
	return engine.Collect(src, p.Sessions*p.Turns*2), nil
}

// scratch holds the buffers a session's token identities are drawn into
// before generateSession copies them into the session's own array. They
// grow to the longest session and are reused for the next one, so each
// session allocates one array of exactly its length.
type scratch struct {
	history []uint64
	traces  []uint64
	// traceAt is each request's output offset in traces, or -1 when
	// its output continues the history.
	traceAt []int
}

// generateSession emits one session's think/act requests against its
// growing history, drawing through sc.
func generateSession(p Profile, si int, start float64, system []uint64, rng *stats.RNG, sc *scratch) []engine.TimedRequest {
	sid := fmt.Sprintf("s%d", si)
	if sc.history == nil {
		// Sized a quarter above the mean length, the scratch rarely
		// regrows.
		mean := len(system) + 8 + p.Turns*int(p.ObsMean+p.ThinkMean+p.ActMean)
		sc.history = make([]uint64, 0, mean+mean/4)
	}
	history := append(sc.history[:0], system...)
	// A short session preamble (user identity, task statement) makes the
	// histories diverge after the shared system prompt.
	for i := 0; i < 8; i++ {
		history = append(history, symOf(rng))
	}
	traces, traceAt := sc.traces[:0], sc.traceAt[:0]
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
	// identities; the identities are attached once the session is drawn.
	emit := func(id label.Label, prompt, output int, slack float64) engine.TimedRequest {
		tr := engine.TimedRequest{
			Request: engine.Request{
				ID:           id,
				PromptTokens: prompt,
				OutputTokens: output,
			},
			Arrival:   clock,
			SessionID: sid,
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
		for b := 0; b < branches; b++ {
			id := label.Think(si, turn)
			outLen := thinkLen
			at := -1 // branch 0's trace is the history's next thinkLen syms
			if b > 0 {
				// Extra samples share the prompt but generate their own
				// traces, which are discarded (best-of-N dead ends).
				id = label.Branch(si, turn, b)
				outLen = sampleLen(p.ThinkMean, p.ThinkSigma, 8)
				at = len(traces)
				for i := 0; i < outLen; i++ {
					traces = append(traces, symOf(rng))
				}
			}
			reqs = append(reqs, emit(id, prompt, outLen, p.ThinkSlack))
			traceAt = append(traceAt, at)
		}
		clock += expSample(rng, p.PhaseGapMean)

		// Act phase: short output over the history including the trace.
		actLen := sampleLen(p.ActMean, p.ActSigma, 2)
		prompt = len(history)
		appendSyms(actLen)
		reqs = append(reqs, emit(label.Act(si, turn), prompt, actLen, p.ActSlack))
		traceAt = append(traceAt, -1)
		clock += expSample(rng, p.TurnGapMean)
	}

	// Every request's identities are windows of one array: the history,
	// then the discarded branch traces.
	syms := make([]uint64, len(history)+len(traces))
	copy(syms, history)
	copy(syms[len(history):], traces)
	for i := range reqs {
		tr := &reqs[i]
		prompt, output := tr.PromptTokens, tr.OutputTokens
		from := prompt
		if traceAt[i] >= 0 {
			from = len(history) + traceAt[i]
		}
		tr.PromptSyms = syms[:prompt:prompt]
		tr.OutputSyms = syms[from : from+output : from+output]
	}
	sc.history, sc.traces, sc.traceAt = history, traces, traceAt
	return reqs
}

// symOf draws one 64-bit token identity. Two independent streams collide
// with negligible probability, so distinct content gets distinct syms.
// Each half is a 31-bit draw: a masked Uint64, which is the sample
// IntN(1<<31) draws, without its dispatch.
func symOf(rng *stats.RNG) uint64 {
	const mask = 1<<31 - 1
	hi := rng.Uint64() & mask
	lo := rng.Uint64() & mask
	return hi<<33 | lo<<2 | 1
}

// expSample draws an exponential gap with the given mean (0 mean -> 0).
func expSample(rng *stats.RNG, mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return -math.Log(u) * mean
}
