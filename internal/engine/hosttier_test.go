package engine

import (
	"math"
	"testing"

	"edgereasoning/internal/hw"
	"edgereasoning/internal/label"
	"edgereasoning/internal/model"
)

func historyAt(base uint64, n int) []uint64 {
	h := make([]uint64, n)
	for i := range h {
		h[i] = base + uint64(i)
	}
	return h
}

func TestServeHostTierRestoreAccounting(t *testing.T) {
	e, err := New(Config{
		Spec: model.MustLookup(model.DSR1Qwen1_5B), Device: hw.JetsonAGXOrin64GB(),
		PrefixCache: true, DeviceBlocks: 64, HostTierBlocks: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	histA := historyAt(1<<40, 2048)
	histB := historyAt(1<<41, 2048)

	// Session A's first turn retains 48 of the 64 device blocks.
	if _, err := e.Serve([]TimedRequest{sessTimed(label.Think(0, 0), 0, histA, 512, 256)}, 4, FCFS); err != nil {
		t.Fatal(err)
	}
	// Session B's first turn needs 48 blocks with only 16 free: admission
	// demotes A's cold chain to the host tier instead of destroying it.
	if _, err := e.Serve([]TimedRequest{sessTimed(label.Think(1, 0), 1000, histB, 512, 256)}, 4, FCFS); err != nil {
		t.Fatal(err)
	}
	if pm := e.PrefixMetrics(); pm.Demotions == 0 || pm.HostRetained == 0 {
		t.Fatalf("pressure did not demote: %+v", pm)
	}

	// Session A's second turn walks onto its host-resident history: the
	// promotion is a prefix hit that charges restore time into TTFT.
	sm, err := e.Serve([]TimedRequest{sessTimed(label.Think(0, 1), 2000, histA, 512+256+128, 64)}, 4, FCFS)
	if err != nil {
		t.Fatal(err)
	}
	if sm.PrefixHits != 1 || sm.HostHits != 1 {
		t.Fatalf("prefix/host hits = %d/%d, want 1/1", sm.PrefixHits, sm.HostHits)
	}
	m := sm.Requests[0]
	if m.CachedPromptTokens == 0 {
		t.Fatal("warm turn cached nothing")
	}
	if m.RestoreTime <= 0 {
		t.Fatalf("restore time %.9f, want > 0", m.RestoreTime)
	}
	if sm.RestoreSeconds != m.RestoreTime {
		t.Fatalf("run restore %.9f != request restore %.9f", sm.RestoreSeconds, m.RestoreTime)
	}
	if got, want := m.TTFT(), m.RestoreTime+m.PrefillTime; got != want {
		t.Fatalf("TTFT %.9f, want restore+prefill %.9f", got, want)
	}
	// The restore advanced the clock, so latency decomposes exactly into
	// queue + restore + prefill + decode.
	lat := sm.Latencies[0]
	if diff := math.Abs(lat - (m.QueueTime + m.TotalTime())); diff > 1e-9 {
		t.Fatalf("latency %.9f does not decompose (queue %.9f + total %.9f)", lat, m.QueueTime, m.TotalTime())
	}
	if m.QueueTime < 0 {
		t.Fatalf("negative queue time %.9f (restore not folded into TotalTime?)", m.QueueTime)
	}
	if pm := e.PrefixMetrics(); pm.Promotions == 0 || pm.HostHits != 1 {
		t.Fatalf("promotion not recorded: %+v", pm)
	}
}

func TestHostTierRequiresPrefixCache(t *testing.T) {
	_, err := New(Config{
		Spec: model.MustLookup(model.DSR1Qwen1_5B), Device: hw.JetsonAGXOrin64GB(),
		HostTierBlocks: 128,
	})
	if err == nil {
		t.Fatal("HostTierBlocks without PrefixCache did not fail")
	}
}

func TestResetRebuildsTier(t *testing.T) {
	e, err := New(Config{
		Spec: model.MustLookup(model.DSR1Qwen1_5B), Device: hw.JetsonAGXOrin64GB(),
		PrefixCache: true, DeviceBlocks: 64, HostTierBlocks: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	histA := historyAt(1<<40, 2048)
	histB := historyAt(1<<41, 2048)
	if _, err := e.Serve([]TimedRequest{sessTimed(label.Think(0, 0), 0, histA, 512, 256)}, 4, FCFS); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Serve([]TimedRequest{sessTimed(label.Think(1, 0), 1000, histB, 512, 256)}, 4, FCFS); err != nil {
		t.Fatal(err)
	}
	if err := e.Reset(); err != nil {
		t.Fatal(err)
	}
	if pm := e.PrefixMetrics(); pm.Demotions != 0 || pm.HostRetained != 0 {
		t.Fatalf("reset kept tier state: %+v", pm)
	}
	// The tier is re-attached, not dropped: pressure after reset demotes
	// again instead of evicting.
	if _, err := e.Serve([]TimedRequest{sessTimed(label.Think(0, 0), 3000, histA, 512, 256)}, 4, FCFS); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Serve([]TimedRequest{sessTimed(label.Think(1, 0), 4000, histB, 512, 256)}, 4, FCFS); err != nil {
		t.Fatal(err)
	}
	if pm := e.PrefixMetrics(); pm.Demotions == 0 {
		t.Fatalf("tier lost across reset: %+v", pm)
	}
}
