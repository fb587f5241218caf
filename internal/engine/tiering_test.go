// Tiering property tests live in the external test package so they can
// drive engine.Serve with internal/session streams (session imports
// engine; an in-package file would be an import cycle).
package engine_test

import (
	"testing"

	"edgereasoning/internal/engine"
	"edgereasoning/internal/hw"
	"edgereasoning/internal/label"
	"edgereasoning/internal/model"
	"edgereasoning/internal/session"
)

// TestTieredServeTokensUnchanged pins the tentpole property: the host
// tier changes when blocks move, never what gets generated. The same
// session stream served on the same starved device cache with the tier
// on and off must produce token-identical results per request — only
// the timing (restore seconds, TTFT, wall time) may differ.
func TestTieredServeTokensUnchanged(t *testing.T) {
	reqs, err := session.Generate(session.AgentLoop(6, 3, 2), 7)
	if err != nil {
		t.Fatal(err)
	}
	spec := model.MustLookup(model.DSR1Qwen1_5B)
	run := func(hostBlocks int) (engine.ServeMetrics, *engine.Engine) {
		t.Helper()
		e, err := engine.New(engine.Config{
			Spec: spec, Device: hw.JetsonAGXOrin64GB(), PrefixCache: true,
			DeviceBlocks: 192, HostTierBlocks: hostBlocks,
		})
		if err != nil {
			t.Fatal(err)
		}
		sm, err := e.Serve(reqs, 8, engine.FCFS)
		if err != nil {
			t.Fatal(err)
		}
		return sm, e
	}
	off, offEng := run(0)
	on, onEng := run(1024)

	if off.Served != len(reqs) || on.Served != len(reqs) {
		t.Fatalf("served %d (off) / %d (on) of %d", off.Served, on.Served, len(reqs))
	}
	type tokens struct{ prompt, output int }
	byID := func(sm engine.ServeMetrics) map[label.Label]tokens {
		out := make(map[label.Label]tokens, len(sm.Requests))
		for _, m := range sm.Requests {
			out[m.ID] = tokens{m.PromptTokens, m.OutputTokens}
		}
		return out
	}
	offTok, onTok := byID(off), byID(on)
	for id, want := range offTok {
		if got, ok := onTok[id]; !ok || got != want {
			t.Fatalf("request %s: tier-on tokens %+v, tier-off %+v", id, got, want)
		}
	}
	if off.TotalTokens != on.TotalTokens {
		t.Fatalf("total tokens diverged: off %d on %d", off.TotalTokens, on.TotalTokens)
	}

	// The starved cache must actually have exercised the tier: the on-run
	// demoted and promoted, the off-run could only evict.
	pmOn, pmOff := onEng.PrefixMetrics(), offEng.PrefixMetrics()
	if pmOn.Demotions == 0 || pmOn.Promotions == 0 {
		t.Fatalf("tier never cycled: %+v", pmOn)
	}
	if on.HostHits == 0 || on.RestoreSeconds <= 0 {
		t.Fatalf("no host hits surfaced in serve metrics: hits %d restore %.6f", on.HostHits, on.RestoreSeconds)
	}
	if pmOff.Demotions != 0 || off.RestoreSeconds != 0 {
		t.Fatalf("tier-off run reported tier activity: %+v restore %.6f", pmOff, off.RestoreSeconds)
	}
	// Restored state is reuse the off-run lost: the tier must not lower
	// the token-weighted hit rate.
	if on.PrefixHitRate() < off.PrefixHitRate() {
		t.Fatalf("host tier lowered hit rate: on %.4f off %.4f", on.PrefixHitRate(), off.PrefixHitRate())
	}
}
