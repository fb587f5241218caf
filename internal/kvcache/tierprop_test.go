package kvcache

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestTierCycleProperties drives randomized demote -> promote ->
// re-demote cycles through a small tiered cache and audits the full
// invariant set (cache refcount conservation, tier residency, chain
// tails, child counters, LRU order on both tiers) after every single
// operation. Eight seeds; run under -race in CI.
func TestTierCycleProperties(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runTierCycleSeed(t, seed)
		})
	}
}

func runTierCycleSeed(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	c, err := New(Config{BlockSize: 4, NumBlocks: 24, BytesPerToken: 512})
	if err != nil {
		t.Fatal(err)
	}
	ix := NewPrefixIndex(c)
	if err := ix.AttachHostTier(HostTierConfig{Blocks: 8}); err != nil {
		t.Fatal(err)
	}

	type liveSeq struct {
		id     string
		h      Handle
		prompt []uint64
	}
	var (
		histories [][]uint64 // session prompt histories, grown per turn
		live      []liveSeq
		nextSym   = uint64(1)
		nextID    int
	)
	freshSyms := func(n int) []uint64 {
		out := syms(nextSym, n)
		nextSym += uint64(n)
		return out
	}
	check := func(op string) {
		t.Helper()
		if err := ix.CheckInvariants(); err != nil {
			t.Fatalf("after %s: %v", op, err)
		}
	}

	const ops = 400
	for i := 0; i < ops; i++ {
		switch k := rng.Intn(10); {
		case k < 4: // start a turn: acquire + append, leave it live
			var prompt []uint64
			if len(histories) > 0 && rng.Intn(3) > 0 {
				base := histories[rng.Intn(len(histories))]
				prompt = append(append([]uint64{}, base...), freshSyms(1+rng.Intn(8))...)
			} else {
				prompt = freshSyms(4 + rng.Intn(12))
			}
			id := fmt.Sprintf("q%d", nextID)
			nextID++
			ix.EnsureFree((len(prompt) + 3) / 4)
			check("ensure-before-acquire")
			h, matched := ix.Acquire(prompt, len(prompt))
			check("acquire")
			if err := c.Append(h, len(prompt)-matched); err != nil {
				// Out of capacity mid-turn: abandon the sequence.
				if err := c.Free(h); err != nil {
					t.Fatalf("free %s: %v", id, err)
				}
				check("append-failed-free")
				continue
			}
			check("append")
			live = append(live, liveSeq{id: id, h: h, prompt: prompt})
		case k < 6: // finish a turn: release with retention
			if len(live) == 0 {
				continue
			}
			j := rng.Intn(len(live))
			s := live[j]
			live = append(live[:j], live[j+1:]...)
			out := freshSyms(rng.Intn(6))
			if err := ix.Release(s.h, s.prompt, out); err != nil {
				t.Fatalf("release %s: %v", s.id, err)
			}
			check("release")
			histories = append(histories, append(append([]uint64{}, s.prompt...), out...))
			if len(histories) > 24 {
				histories = histories[1:]
			}
		case k < 7: // abandon a live sequence without retention
			if len(live) == 0 {
				continue
			}
			j := rng.Intn(len(live))
			s := live[j]
			live = append(live[:j], live[j+1:]...)
			if err := c.Free(s.h); err != nil {
				t.Fatalf("free %s: %v", s.id, err)
			}
			check("free")
		case k < 9: // memory pressure: demote (and maybe drop) LRU state
			ix.EnsureFree(1 + rng.Intn(24))
			check("ensure-free")
		default: // observe: probe touches recency, peek must not
			if len(histories) == 0 {
				continue
			}
			p := histories[rng.Intn(len(histories))]
			ix.Probe(p)
			check("probe")
			ix.Peek(p)
			check("peek")
		}
	}
	for _, s := range live {
		if err := c.Free(s.h); err != nil {
			t.Fatalf("final free %s: %v", s.id, err)
		}
		check("final-free")
	}
	m := ix.Metrics()
	if m.Demotions == 0 || m.Promotions == 0 || m.Evictions == 0 {
		t.Fatalf("seed %d never exercised the full cycle: demotions %d promotions %d evictions %d",
			seed, m.Demotions, m.Promotions, m.Evictions)
	}
}
