package kvcache

import (
	"math"
	"testing"
)

// newTieredCache builds a cache with a prefix index and host tier.
func newTieredCache(t *testing.T, blockSize, numBlocks, hostBlocks int, bw float64) (*Cache, *PrefixIndex) {
	t.Helper()
	c, err := New(Config{BlockSize: blockSize, NumBlocks: numBlocks, BytesPerToken: 1024})
	if err != nil {
		t.Fatal(err)
	}
	ix := NewPrefixIndex(c)
	if err := ix.AttachHostTier(HostTierConfig{Blocks: hostBlocks, LinkBandwidth: bw}); err != nil {
		t.Fatal(err)
	}
	return c, ix
}

// probeSyms extends a prompt by one symbol so a whole-block prompt can
// be fully probed (walk always leaves one token unmatched).
func probeSyms(prompt []uint64) []uint64 {
	return append(append([]uint64{}, prompt...), ^uint64(0))
}

func TestTierDemoteOnPressureKeepsState(t *testing.T) {
	c, ix := newTieredCache(t, 4, 8, 8, 0)
	promptA := syms(100, 8)
	promptB := syms(2000, 8)
	runTurn(t, c, ix, "a0", promptA, nil) // chain A: 2 blocks, colder
	runTurn(t, c, ix, "b0", promptB, nil) // chain B: 2 blocks, warmer
	if free := c.FreeBlocks(); free != 4 {
		t.Fatalf("free %d before pressure, want 4", free)
	}
	ix.EnsureFree(6)
	m := ix.Metrics()
	if m.Demotions != 2 || m.HostRetained != 2 || m.Retained != 2 {
		t.Fatalf("after pressure: demotions %d hostRetained %d retained %d, want 2/2/2", m.Demotions, m.HostRetained, m.Retained)
	}
	if m.Evictions != 0 {
		t.Fatalf("evictions %d, want 0 (demotion preserves state)", m.Evictions)
	}
	if free := c.FreeBlocks(); free != 6 {
		t.Fatalf("free %d after demotion, want 6", free)
	}
	// Probe counts device blocks only; Peek sees both tiers.
	if got := ix.Probe(probeSyms(promptA)); got != 0 {
		t.Fatalf("probe of demoted chain matched %d device blocks, want 0", got)
	}
	if dev, host := ix.Peek(probeSyms(promptA)); dev != 0 || host != 2 {
		t.Fatalf("peek = (%d, %d), want (0, 2)", dev, host)
	}
	if dev, host := ix.Peek(probeSyms(promptB)); dev != 2 || host != 0 {
		t.Fatalf("peek warm = (%d, %d), want (2, 0)", dev, host)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTierPromoteOnAcquireChargesRestore(t *testing.T) {
	const bw = 1e6 // 1 MB/s: restore cost large enough to assert exactly
	c, ix := newTieredCache(t, 4, 8, 8, bw)
	prompt := syms(100, 8)
	runTurn(t, c, ix, "a0", prompt, nil)
	ix.EnsureFree(8) // demote both blocks
	if m := ix.Metrics(); m.HostRetained != 2 {
		t.Fatalf("hostRetained %d after pressure, want 2", m.HostRetained)
	}
	h, matched := ix.Acquire(probeSyms(prompt), 0)
	if matched != 8 {
		t.Fatalf("acquire matched %d tokens, want 8 (host segment promoted)", matched)
	}
	m := ix.Metrics()
	if m.Promotions != 2 || m.HostRetained != 0 || m.Retained != 2 || m.HostHits != 1 {
		t.Fatalf("promotions %d hostRetained %d retained %d hostHits %d, want 2/0/2/1",
			m.Promotions, m.HostRetained, m.Retained, m.HostHits)
	}
	// 2 blocks x 4 tokens x 1024 B at 1 MB/s = 8192/1e6 seconds.
	want := 2 * 4 * 1024 / bw
	if math.Abs(m.RestoreSeconds-want) > 1e-12 {
		t.Fatalf("restore %.9f s, want %.9f", m.RestoreSeconds, want)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Re-demotion after the promoted turn completes a full cycle.
	if err := c.Free(h); err != nil {
		t.Fatal(err)
	}
	ix.EnsureFree(8)
	if m := ix.Metrics(); m.HostRetained != 2 || m.Demotions != 4 {
		t.Fatalf("re-demotion: hostRetained %d demotions %d, want 2/4", m.HostRetained, m.Demotions)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTierHostOverflowDropsColdest(t *testing.T) {
	c, ix := newTieredCache(t, 4, 8, 1, 0)
	promptA := syms(100, 4)
	promptB := syms(2000, 4)
	runTurn(t, c, ix, "a0", promptA, nil) // 1 block, colder
	runTurn(t, c, ix, "b0", promptB, nil) // 1 block, warmer
	ix.EnsureFree(8)                      // both demote; host holds 1 => A drops
	m := ix.Metrics()
	if m.Demotions != 2 || m.HostRetained != 1 || m.Evictions != 1 {
		t.Fatalf("demotions %d hostRetained %d evictions %d, want 2/1/1", m.Demotions, m.HostRetained, m.Evictions)
	}
	if _, host := ix.Peek(probeSyms(promptA)); host != 0 {
		t.Fatalf("cold chain A still host-resident after overflow")
	}
	if _, host := ix.Peek(probeSyms(promptB)); host != 1 {
		t.Fatalf("warm chain B lost to overflow")
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestTierReleaseBelowHostSegmentTruncates pins the chain-tail
// invariant at the Release boundary: a sequence whose history walks
// onto a host-resident segment must not grow device entries beneath it.
func TestTierReleaseBelowHostSegmentTruncates(t *testing.T) {
	c, ix := newTieredCache(t, 4, 16, 8, 0)
	prompt := syms(100, 8)
	runTurn(t, c, ix, "a0", prompt, nil)
	ix.EnsureFree(16) // demote chain A entirely
	if m := ix.Metrics(); m.HostRetained != 2 || m.Retained != 0 {
		t.Fatalf("hostRetained %d retained %d after pressure, want 2/0", m.HostRetained, m.Retained)
	}
	// A sequence holding A's content plus a fresh tail releases while the
	// front of its history is host-resident (demoted between its
	// admission and completion).
	ext := append(append([]uint64{}, prompt...), syms(9000, 4)...)
	h, err := c.Allocate(len(ext), len(ext))
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Release(h, ext, nil); err != nil {
		t.Fatal(err)
	}
	// The host segment was touched, not duplicated; the new tail was not
	// retained beneath it.
	m := ix.Metrics()
	if m.Retained != 0 || m.HostRetained != 2 {
		t.Fatalf("retained %d hostRetained %d after release, want 0/2", m.Retained, m.HostRetained)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTierPeekLeavesRecencyAlone(t *testing.T) {
	c, ix := newTieredCache(t, 4, 8, 8, 0)
	promptA := syms(100, 4)
	promptB := syms(2000, 4)
	runTurn(t, c, ix, "a0", promptA, nil) // colder
	runTurn(t, c, ix, "b0", promptB, nil) // warmer
	// A Probe would refresh A past B; Peek must not.
	if dev, host := ix.Peek(probeSyms(promptA)); dev != 1 || host != 0 {
		t.Fatalf("peek = (%d, %d), want (1, 0)", dev, host)
	}
	ix.EnsureFree(7) // demote exactly one block: A is still the LRU head
	if _, host := ix.Peek(probeSyms(promptA)); host != 1 {
		t.Fatalf("peek perturbed recency: warm chain demoted before cold")
	}
	if dev, _ := ix.Peek(probeSyms(promptB)); dev != 1 {
		t.Fatalf("warm chain B no longer device-resident")
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAttachHostTierErrors(t *testing.T) {
	c, err := New(Config{BlockSize: 4, NumBlocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	ix := NewPrefixIndex(c)
	if err := ix.AttachHostTier(HostTierConfig{Blocks: 0}); err == nil {
		t.Fatal("attach with zero capacity did not fail")
	}
	if err := ix.AttachHostTier(HostTierConfig{Blocks: 4}); err != nil {
		t.Fatal(err)
	}
	if err := ix.AttachHostTier(HostTierConfig{Blocks: 4}); err == nil {
		t.Fatal("double attach did not fail")
	}

	c2, ix2 := newPrefixCache(t, 4, 8)
	runTurn(t, c2, ix2, "a0", syms(100, 4), nil)
	if err := ix2.AttachHostTier(HostTierConfig{Blocks: 4}); err == nil {
		t.Fatal("attach after retention did not fail")
	}
}

// TestEvictionOrderTable pins the global eviction order across chain
// shapes — in particular the parent re-entry path: when a leaf's
// eviction turns its parent back into a leaf, the parent re-enters the
// evictable list at its own recency (which a probe may have refreshed
// after the child was last matched), not at the list tail or head.
func TestEvictionOrderTable(t *testing.T) {
	// Chains: X = 2 blocks (8 syms), Y and Z = 1 block (4 syms) each.
	x, y, z := syms(100, 8), syms(2000, 4), syms(3000, 4)
	cases := []struct {
		name string
		// setup runs after X, Y, Z are retained in that order.
		setup func(t *testing.T, ix *PrefixIndex)
		// order lists the chains' expected block counts after each
		// successive eviction, as [x, y, z] triples.
		order [][3]int
	}{
		{
			name:  "untouched: strict retention order, tail first",
			setup: func(t *testing.T, ix *PrefixIndex) {},
			// Leaves by recency: x1, y0, z0. Evicting x1 re-leafs x0 at its
			// original recency — older than y0 — so x tears down fully first.
			order: [][3]int{{1, 1, 1}, {0, 1, 1}, {0, 0, 1}, {0, 0, 0}},
		},
		{
			name: "parent touched after child: re-leafed parent keeps refreshed recency",
			setup: func(t *testing.T, ix *PrefixIndex) {
				// A one-block probe refreshes x0 without touching x1 or the
				// other chains.
				if got := ix.Probe(x[:5]); got != 1 {
					t.Fatalf("short probe matched %d, want 1", got)
				}
			},
			// x1 is still the oldest leaf, but once it goes, x0's refreshed
			// recency outlives both y0 and z0.
			order: [][3]int{{1, 1, 1}, {1, 0, 1}, {1, 0, 0}, {0, 0, 0}},
		},
		{
			name: "whole chain touched: refreshed chain evicts last",
			setup: func(t *testing.T, ix *PrefixIndex) {
				if got := ix.Probe(probeSyms(x)); got != 2 {
					t.Fatalf("probe matched %d, want 2", got)
				}
			},
			// y0, then z0, then x tail-first.
			order: [][3]int{{2, 0, 1}, {2, 0, 0}, {1, 0, 0}, {0, 0, 0}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, ix := newPrefixCache(t, 4, 16)
			runTurn(t, c, ix, "x", x, nil)
			runTurn(t, c, ix, "y", y, nil)
			runTurn(t, c, ix, "z", z, nil)
			tc.setup(t, ix)
			devBlocks := func(prompt []uint64) int {
				d, _ := ix.Peek(probeSyms(prompt))
				return d
			}
			for step, want := range tc.order {
				if !ix.evictOne() {
					t.Fatalf("step %d: nothing left to evict", step)
				}
				got := [3]int{devBlocks(x), devBlocks(y), devBlocks(z)}
				if got != want {
					t.Fatalf("after eviction %d: surviving blocks %v, want %v", step+1, got, want)
				}
				if err := ix.CheckInvariants(); err != nil {
					t.Fatalf("after eviction %d: %v", step+1, err)
				}
			}
			if ix.evictOne() {
				t.Fatal("eviction succeeded on an empty index")
			}
		})
	}
}
