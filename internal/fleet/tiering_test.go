package fleet

import (
	"testing"

	"edgereasoning/internal/engine"
	"edgereasoning/internal/hw"
	"edgereasoning/internal/label"
	"edgereasoning/internal/session"
)

func tieredOpts() Config {
	return Config{PrefixCache: true, DeviceBlocks: 64, HostTierBlocks: 128}
}

func sessHist(base uint64, n int) []uint64 {
	h := make([]uint64, n)
	for i := range h {
		h[i] = base + uint64(i)
	}
	return h
}

func sessTurn(id label.Label, sid string, arrival float64, hist []uint64, prompt, output int) engine.TimedRequest {
	tr := timed(id, arrival, prompt, output, 0)
	tr.SessionID = sid
	tr.PromptSyms = hist[:prompt]
	if prompt+output <= len(hist) {
		tr.OutputSyms = hist[prompt : prompt+output]
	}
	return tr
}

// serveTurn runs one turn to completion on the replica's open serve run.
func serveTurn(t *testing.T, r *replica, turn engine.TimedRequest) {
	t.Helper()
	r.advance(turn.Arrival)
	r.sv.Offer(turn, turn.Arrival)
	r.advance(turn.Arrival + 500)
	if r.err != nil {
		t.Fatal(r.err)
	}
}

// TestSessionAffinityPrefersWarmHostOverCold pins the re-pin rule: when
// a displaced session re-pins, the replica holding the longest resident
// prefix of its history wins, device residency breaking ties — so a
// device-warm replica beats a host-warm one holding as much, host-warm
// beats cold, and a full history in host DRAM beats a device-resident
// shared system prompt. New sessions ignore warmth (least-pinned), so a
// shared prompt does not attract them, and untiered fleets keep the
// least-pinned pick throughout.
func TestSessionAffinityPrefersWarmHostOverCold(t *testing.T) {
	mk := func(name string) *replica {
		r, err := newReplica(ReplicaConfig{
			Name: name, Spec: smallSpec(), Device: hw.JetsonAGXOrin64GB(),
		}.withDefaults(0), tieredOpts(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	cold, hostWarm, devWarm := mk("cold"), mk("host"), mk("dev")
	histA := sessHist(1<<40, 2048)
	histB := sessHist(1<<41, 2048)

	// hostWarm serves session A, then pressure from sessions B and C
	// demotes A's history to its host tier entirely (demotion is
	// leaf-first, so one pressure round leaves the chain head on device).
	histC := sessHist(1<<42, 2048)
	serveTurn(t, hostWarm, sessTurn(label.Think(1, 0), "sA", 0, histA, 512, 256))
	serveTurn(t, hostWarm, sessTurn(label.Think(2, 0), "sB", 1000, histB, 512, 256))
	serveTurn(t, hostWarm, sessTurn(label.Think(3, 0), "sC", 2000, histC, 512, 256))
	// devWarm serves session A with no pressure: history stays on device.
	serveTurn(t, devWarm, sessTurn(label.Think(1, 0), "sA", 0, histA, 512, 256))

	turn := sessTurn(label.Think(1, 1), "sA", 3000, histA, 512+256+128, 64)
	if dev, host := hostWarm.eng.PeekPrefix(turn.PromptSyms); dev != 0 || host == 0 {
		t.Fatalf("setup: hostWarm peek = (%d, %d), want (0, >0)", dev, host)
	}
	if dev, _ := devWarm.eng.PeekPrefix(turn.PromptSyms); dev == 0 {
		t.Fatalf("setup: devWarm history not device-resident")
	}

	// Session A was displaced from its pin (a crash or a retirement).
	ro := &router{replicas: []*replica{cold, hostWarm, devWarm}, policy: SessionAffinity, tiered: true,
		sticky: map[string]int{"sA": -1}, pinned: []int{0, 0, 0}}
	if got := ro.choose([]int{0, 1, 2}, turn, 3000); got != 2 {
		t.Fatalf("full candidate set re-pinned to %d, want 2 (device-warm)", got)
	}
	ro.sticky["sA"] = -1
	ro.pinned[2]--
	// Device-warm replica saturated: host-warm must beat cold.
	if got := ro.choose([]int{0, 1}, turn, 3000); got != 1 {
		t.Fatalf("without device-warm candidate re-pinned to %d, want 1 (host-warm)", got)
	}

	// A new session ignores warmth: least-pinned, first candidate on ties.
	fresh := sessTurn(label.Think(9, 0), "sN", 3000, histA, 512, 64)
	if got := ro.choose([]int{0, 2}, fresh, 3000); got != 0 {
		t.Fatalf("new session pinned to %d, want 0 (least-pinned, warmth ignored)", got)
	}

	// Untiered router on the same replicas: least-pinned tie falls to the
	// first candidate, warmth ignored.
	legacy := &router{replicas: []*replica{cold, hostWarm, devWarm}, policy: SessionAffinity,
		sticky: map[string]int{"sA": -1}}
	if got := legacy.choose([]int{0, 1, 2}, turn, 3000); got != 0 {
		t.Fatalf("untiered router pinned to %d, want 0 (legacy least-pinned)", got)
	}

	// Shared system prompt: every session opens on the same 256 tokens, so
	// a replica that served any session holds them device-resident.
	// holder serves session S, and unrelated pressure then demotes S's
	// history to host DRAM; sharer serves only session T.
	withSystem := func(base uint64) []uint64 {
		return append(sessHist(1<<50, 256), sessHist(base, 1792)...)
	}
	holder, sharer := mk("holder"), mk("sharer")
	histS := withSystem(1 << 44)
	serveTurn(t, holder, sessTurn(label.Think(0, 0), "sS", 0, histS, 512, 256))
	serveTurn(t, holder, sessTurn(label.Think(4, 0), "sD", 1000, sessHist(1<<45, 2048), 512, 256))
	serveTurn(t, holder, sessTurn(label.Think(5, 0), "sE", 2000, sessHist(1<<46, 2048), 512, 256))
	serveTurn(t, sharer, sessTurn(label.Think(6, 0), "sT", 0, withSystem(1<<47), 512, 256))
	turnS := sessTurn(label.Think(0, 1), "sS", 3000, histS, 512+256+128, 64)
	hd, hh := holder.eng.PeekPrefix(turnS.PromptSyms)
	sd, sh := sharer.eng.PeekPrefix(turnS.PromptSyms)
	if hh == 0 || hd+hh <= sd+sh || sd <= hd {
		t.Fatalf("setup: holder (%d dev, %d host) must hold more of S's history, sharer (%d, %d) more of it on device",
			hd, hh, sd, sh)
	}
	shared := &router{replicas: []*replica{sharer, holder, cold}, policy: SessionAffinity, tiered: true,
		sticky: map[string]int{"sS": -1}, pinned: []int{0, 0, 0}}
	// The displaced session returns to its whole history, even in host
	// DRAM, over a device-resident copy of the shared prompt alone.
	if got := shared.choose([]int{0, 1, 2}, turnS, 3000); got != 1 {
		t.Fatalf("displaced session re-pinned to %d, want 1 (longest resident history)", got)
	}
	// A new session sharing only the system prompt goes least-pinned.
	shared.pinned[0] = 1
	fresh2 := sessTurn(label.Think(7, 0), "sU", 3000, withSystem(1<<48), 512, 64)
	if got := shared.choose([]int{0, 2}, fresh2, 3000); got != 2 {
		t.Fatalf("new session pinned to %d, want 2 (least-pinned, not the shared prompt's holder)", got)
	}
}

// TestTieredFleetServesSessionsUnderPressure runs the full stack: a
// session stream over starved tiered replicas must complete with tier
// traffic surfaced in the fleet metrics, and generate exactly the same
// tokens as the untiered fleet.
func TestTieredFleetServesSessionsUnderPressure(t *testing.T) {
	reqs, err := session.Generate(session.AgentLoop(6, 3, 1), 7)
	if err != nil {
		t.Fatal(err)
	}
	run := func(hostBlocks int) Metrics {
		cfg := homogeneousFleet(2, SessionAffinity)
		cfg.PrefixCache = true
		cfg.DeviceBlocks = 192
		cfg.HostTierBlocks = hostBlocks
		m, err := Serve(cfg, reqs)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	on := run(1024)
	off := run(0)

	if on.Served != len(reqs) || off.Served != len(reqs) {
		t.Fatalf("served %d (on) / %d (off) of %d", on.Served, off.Served, len(reqs))
	}
	if on.TierDemotions == 0 || on.TierPromotions == 0 || on.HostHits == 0 || on.RestoreSeconds <= 0 {
		t.Fatalf("tier traffic missing from fleet metrics: %+v", on)
	}
	if off.TierDemotions != 0 || off.RestoreSeconds != 0 {
		t.Fatalf("untiered fleet reported tier traffic: demotions %d restore %.6f",
			off.TierDemotions, off.RestoreSeconds)
	}
	// Tiering moves blocks, not tokens.
	total := 0
	for _, r := range reqs {
		total += r.PromptTokens + r.OutputTokens
	}
	for _, m := range []Metrics{on, off} {
		got := 0
		for _, rm := range m.Replicas {
			got += rm.TotalTokens
		}
		if got != total {
			t.Fatalf("fleet token conservation broken: %d, want %d", got, total)
		}
	}
	if on.PrefixHitRate() < off.PrefixHitRate() {
		t.Fatalf("host tier lowered fleet hit rate: on %.4f off %.4f",
			on.PrefixHitRate(), off.PrefixHitRate())
	}
}
