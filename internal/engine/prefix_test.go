package engine

import (
	"testing"

	"edgereasoning/internal/hw"
	"edgereasoning/internal/label"
	"edgereasoning/internal/model"
)

func newPrefixEngine(t *testing.T, id model.ID) *Engine {
	t.Helper()
	e, err := New(Config{Spec: model.MustLookup(id), Device: hw.JetsonAGXOrin64GB(), PrefixCache: true})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// sessTimed builds a timed request with token identities derived from a
// shared history slice, the way internal/session emits them.
func sessTimed(id label.Label, arrival float64, history []uint64, prompt, output int) TimedRequest {
	tr := TimedRequest{
		Request:    Request{ID: id, PromptTokens: prompt, OutputTokens: output},
		Arrival:    arrival,
		SessionID:  "s0",
		PromptSyms: history[:prompt],
	}
	if prompt+output <= len(history) {
		tr.OutputSyms = history[prompt : prompt+output]
	}
	return tr
}

func growingHistory(n int) []uint64 {
	h := make([]uint64, n)
	for i := range h {
		h[i] = 0x9e3779b97f4a7c15 + uint64(i)
	}
	return h
}

func TestServeWarmTurnReusesPrefix(t *testing.T) {
	history := growingHistory(2048)
	// Turn 0: 512-token prompt, 256-token output. Turn 1: the prompt is
	// the full turn-0 history plus 128 new tokens.
	turn0 := sessTimed(label.Think(0, 0), 0, history, 512, 256)
	turn1 := sessTimed(label.Think(0, 1), 200, history, 512+256+128, 64)

	warm := newPrefixEngine(t, model.DSR1Qwen1_5B)
	wm, err := warm.Serve([]TimedRequest{turn0, turn1}, 4, FCFS)
	if err != nil {
		t.Fatal(err)
	}
	cold := newOrinEngine(t, model.DSR1Qwen1_5B)
	cm, err := cold.Serve([]TimedRequest{turn0, turn1}, 4, FCFS)
	if err != nil {
		t.Fatal(err)
	}

	if wm.PrefixLookups != 2 || wm.PrefixHits != 1 {
		t.Fatalf("prefix lookups/hits = %d/%d, want 2/1", wm.PrefixLookups, wm.PrefixHits)
	}
	// The whole turn-0 history is block-aligned (768 tokens, block 16),
	// so turn 1 reuses all of it.
	if wm.SavedPrefillTokens != 768 {
		t.Fatalf("saved %d prefill tokens, want 768", wm.SavedPrefillTokens)
	}
	if cm.SavedPrefillTokens != 0 || cm.PrefixLookups != 0 {
		t.Fatalf("cold engine reported prefix activity: %+v", cm)
	}

	// Completion order is request order here; index 1 is turn 1.
	wt1, ct1 := wm.Requests[1], cm.Requests[1]
	if wt1.CachedPromptTokens != 768 {
		t.Fatalf("turn-1 cached %d tokens, want 768", wt1.CachedPromptTokens)
	}
	if wt1.PrefillTime >= ct1.PrefillTime {
		t.Errorf("warm prefill %.4fs not faster than cold %.4fs", wt1.PrefillTime, ct1.PrefillTime)
	}
	if wt1.DecodeTime != ct1.DecodeTime {
		t.Errorf("decode time changed: warm %.4fs cold %.4fs", wt1.DecodeTime, ct1.DecodeTime)
	}
	// Turn 0 is identical either way (cold start).
	if wm.Requests[0].PrefillTime != cm.Requests[0].PrefillTime {
		t.Errorf("turn-0 prefill differs: warm %.4fs cold %.4fs",
			wm.Requests[0].PrefillTime, cm.Requests[0].PrefillTime)
	}
}

func TestServePrefixDisabledMatchesBaseline(t *testing.T) {
	// A prefix-enabled engine serving requests WITHOUT syms must behave
	// exactly like the baseline engine.
	reqs := []TimedRequest{
		timed(0, 0, 64, 100, 0),
		timed(1, 1, 128, 50, 20),
		timed(2, 2, 64, 100, 0),
	}
	base := newOrinEngine(t, model.DSR1Qwen1_5B)
	bm, err := base.Serve(reqs, 2, FCFS)
	if err != nil {
		t.Fatal(err)
	}
	pref := newPrefixEngine(t, model.DSR1Qwen1_5B)
	pm, err := pref.Serve(reqs, 2, FCFS)
	if err != nil {
		t.Fatal(err)
	}
	if bm.WallTime != pm.WallTime || bm.TotalEnergy != pm.TotalEnergy {
		t.Fatalf("sym-less serving diverged: wall %.6f vs %.6f, energy %.3f vs %.3f",
			bm.WallTime, pm.WallTime, bm.TotalEnergy, pm.TotalEnergy)
	}
	if pm.PrefixLookups != 0 {
		t.Fatalf("sym-less requests consulted the prefix cache %d times", pm.PrefixLookups)
	}
}

func TestServeBranchesShareOneHistory(t *testing.T) {
	history := growingHistory(1024)
	e := newPrefixEngine(t, model.DSR1Qwen1_5B)
	// Seed the index with one completed turn.
	if _, err := e.Serve([]TimedRequest{sessTimed(label.Think(0, 0), 0, history, 512, 256)}, 4, FCFS); err != nil {
		t.Fatal(err)
	}
	// Three parallel branches off the same 768-token history.
	branches := make([]TimedRequest, 3)
	for i := range branches {
		branches[i] = sessTimed(label.Branch(0, 1, i), 1000, history, 768, 64)
		branches[i].OutputSyms = nil // dead-end samples
	}
	bm, err := e.Serve(branches, 4, FCFS)
	if err != nil {
		t.Fatal(err)
	}
	if bm.PrefixHits != 3 {
		t.Fatalf("prefix hits = %d, want 3", bm.PrefixHits)
	}
	// 768 tokens, block 16: the cap leaves the last block to prefill, so
	// each branch reuses 752 tokens.
	if want := 3 * 752; bm.SavedPrefillTokens != want {
		t.Fatalf("saved %d tokens, want %d", bm.SavedPrefillTokens, want)
	}
	if err := e.cache.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if st := e.CacheStats(); st.Sequences != 0 {
		t.Fatalf("leaked %d sequences", st.Sequences)
	}
}

func TestServePrefixMetricsAccumulate(t *testing.T) {
	history := growingHistory(512)
	e := newPrefixEngine(t, model.DSR1Qwen1_5B)
	if _, err := e.Serve([]TimedRequest{sessTimed(label.Think(0, 0), 0, history, 256, 128)}, 1, FCFS); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Serve([]TimedRequest{sessTimed(label.Think(0, 1), 500, history, 448, 32)}, 1, FCFS); err != nil {
		t.Fatal(err)
	}
	pm := e.PrefixMetrics()
	if pm.Lookups != 2 || pm.Hits != 1 || pm.SavedTokens == 0 {
		t.Fatalf("engine-lifetime prefix metrics wrong: %+v", pm)
	}
	// Reset discards the index along with the cache.
	if err := e.Reset(); err != nil {
		t.Fatal(err)
	}
	if pm := e.PrefixMetrics(); pm.Lookups != 0 {
		t.Fatalf("reset kept prefix metrics: %+v", pm)
	}
}
