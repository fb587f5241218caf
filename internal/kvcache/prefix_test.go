package kvcache

import "testing"

// syms returns n distinct token symbols offset by base, so tests can
// build prompts with controlled shared prefixes.
func syms(base uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = base + uint64(i)
	}
	return out
}

func newPrefixCache(t *testing.T, blockSize, numBlocks int) (*Cache, *PrefixIndex) {
	t.Helper()
	c, err := New(Config{BlockSize: blockSize, NumBlocks: numBlocks})
	if err != nil {
		t.Fatal(err)
	}
	return c, NewPrefixIndex(c)
}

// runTurn acquires a sequence for promptSyms, appends the unmatched
// prompt suffix plus the output, and releases it with retention.
func runTurn(t *testing.T, c *Cache, ix *PrefixIndex, id string, promptSyms, outputSyms []uint64) int {
	t.Helper()
	h, matched := ix.Acquire(promptSyms, len(promptSyms)+len(outputSyms))
	if err := c.Append(h, len(promptSyms)-matched+len(outputSyms)); err != nil {
		t.Fatalf("%s: append: %v", id, err)
	}
	if err := ix.Release(h, promptSyms, outputSyms); err != nil {
		t.Fatalf("%s: release: %v", id, err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return matched
}

func TestPrefixColdThenWarm(t *testing.T) {
	c, ix := newPrefixCache(t, 4, 64)
	prompt := syms(100, 10)
	out := syms(1000, 6)

	if m := runTurn(t, c, ix, "t0", prompt, out); m != 0 {
		t.Fatalf("cold acquire matched %d tokens, want 0", m)
	}
	// 16 tokens retained => 4 full blocks held by the index.
	if got := ix.Metrics().Retained; got != 4 {
		t.Fatalf("retained %d blocks, want 4", got)
	}

	// Same prompt again: full blocks match, but at least one token must
	// remain for prefill, so 10 tokens cap at 2 blocks = 8 tokens.
	if m := runTurn(t, c, ix, "t1", prompt, syms(2000, 2)); m != 8 {
		t.Fatalf("warm acquire matched %d tokens, want 8", m)
	}

	// Next turn's prompt extends the first turn's prompt+output: all 4
	// retained blocks match.
	history := append(append([]uint64{}, prompt...), out...)
	next := append(append([]uint64{}, history...), syms(3000, 5)...)
	if m := runTurn(t, c, ix, "t2", next, nil); m != 16 {
		t.Fatalf("extended acquire matched %d tokens, want 16", m)
	}

	m := ix.Metrics()
	if m.Lookups != 3 || m.Hits != 2 {
		t.Fatalf("lookups/hits = %d/%d, want 3/2", m.Lookups, m.Hits)
	}
	if m.SavedTokens != 24 {
		t.Fatalf("saved %d tokens, want 24", m.SavedTokens)
	}
}

func TestPrefixSharedBlocksWhileLive(t *testing.T) {
	c, ix := newPrefixCache(t, 4, 64)
	prompt := syms(100, 9)
	runTurn(t, c, ix, "t0", prompt, nil)

	// Two concurrent branches off the same retained history: both share
	// the retained blocks fork-style.
	var branches []Handle
	for range 2 {
		h, _ := ix.Acquire(prompt, len(prompt))
		branches = append(branches, h)
	}
	if got := c.Stats().SharedBlocks; got != 2 {
		t.Fatalf("SharedBlocks = %d, want 2 (index + two branches on 2 blocks)", got)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, h := range branches {
		if err := c.Free(h); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPrefixDuplicateContentKeepsOneCopy(t *testing.T) {
	c, ix := newPrefixCache(t, 4, 64)
	prompt := syms(100, 8)
	// Two sequences with identical content complete without ever seeing
	// each other (both cold). The second release must not double-retain.
	var seqs []Handle
	for range 2 {
		h, _ := ix.Acquire(prompt, len(prompt))
		if err := c.Append(h, len(prompt)); err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, h)
	}
	for _, h := range seqs {
		if err := ix.Release(h, prompt, nil); err != nil {
			t.Fatal(err)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if got := ix.Metrics().Retained; got != 2 {
		t.Fatalf("retained %d blocks, want 2 (one copy of the 2 full blocks)", got)
	}
	// Only the canonical copy survives; the duplicate's blocks are free.
	if free := c.FreeBlocks(); free != 62 {
		t.Fatalf("free %d blocks, want 62", free)
	}
}

func TestPrefixEvictionLRULeafFirst(t *testing.T) {
	c, ix := newPrefixCache(t, 4, 16)
	// Retain two chains: "old" (2 blocks) then "hot" (2 blocks).
	old := syms(100, 8)
	hot := syms(5000, 8)
	runTurn(t, c, ix, "a", old, nil)
	runTurn(t, c, ix, "b", hot, nil)
	// Touch the old chain so the hot one becomes LRU.
	if got := ix.Probe(append(append([]uint64{}, old...), 9)); got != 2 {
		t.Fatalf("probe matched %d blocks, want 2", got)
	}

	if c.FreeBlocks() != 12 {
		t.Fatalf("free %d, want 12", c.FreeBlocks())
	}
	// Ask for more free blocks than exist outside the index: the two
	// hot-chain blocks must go (leaf first, then its parent), the
	// recently-probed old chain survives.
	ix.EnsureFree(14)
	if c.FreeBlocks() != 14 {
		t.Fatalf("free %d after eviction, want 14", c.FreeBlocks())
	}
	m := ix.Metrics()
	if m.Evictions != 2 || m.Retained != 2 {
		t.Fatalf("evictions/retained = %d/%d, want 2/2", m.Evictions, m.Retained)
	}
	if got := ix.Probe(append(append([]uint64{}, old...), 9)); got != 2 {
		t.Fatalf("old chain lost: probe matched %d blocks, want 2", got)
	}
	if got := ix.Probe(append(append([]uint64{}, hot...), 9)); got != 0 {
		t.Fatalf("evicted chain still matches %d blocks", got)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Draining the index completely frees everything.
	ix.EnsureFree(16)
	if c.FreeBlocks() != 16 || ix.Metrics().Retained != 0 {
		t.Fatalf("drain left free=%d retained=%d", c.FreeBlocks(), ix.Metrics().Retained)
	}
}

func TestPrefixEvictSharedBlockDoesNotFreeIt(t *testing.T) {
	c, ix := newPrefixCache(t, 4, 8)
	prompt := syms(100, 8)
	runTurn(t, c, ix, "t0", prompt, nil) // retains 2 blocks
	// A live sequence shares both retained blocks.
	live, m := ix.Acquire(append(append([]uint64{}, prompt...), 9), 0)
	if m != 8 {
		t.Fatalf("acquire matched %d, want 8", m)
	}
	// Evicting a shared leaf drops only the index ref and frees nothing;
	// EnsureFree notices the zero-reclaim round and stops instead of
	// draining the rest of the chain for no capacity.
	ix.EnsureFree(8)
	if got := ix.Metrics().Retained; got != 1 {
		t.Fatalf("retained %d after zero-reclaim stop, want 1", got)
	}
	if got := ix.Metrics().Evictions; got != 1 {
		t.Fatalf("evictions %d, want 1", got)
	}
	if free := c.FreeBlocks(); free != 6 {
		t.Fatalf("free %d, want 6 (live sequence still holds 2)", free)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := c.Free(live); err != nil {
		t.Fatal(err)
	}
	// The evicted leaf's block frees with the sequence; the surviving
	// entry keeps its block retained.
	if free := c.FreeBlocks(); free != 7 {
		t.Fatalf("free %d after live free, want 7", free)
	}
}

// TestEnsureFreeSharedLeavesDoNotDrainIndex is the regression test for
// the eviction wipeout: when the least-recently-used leaf is still
// shared with a live sequence, each eviction reclaims zero blocks, and
// the pre-fix loop would keep going — destroying every warm session
// history in the index without freeing any capacity at all. The fixed
// loop stops after the first zero-reclaim round, so the warm chains
// behind the shared one survive. (Pre-fix, Retained ends at 0 and both
// warm probes miss.)
func TestEnsureFreeSharedLeavesDoNotDrainIndex(t *testing.T) {
	c, ix := newPrefixCache(t, 4, 8)
	promptA := syms(100, 8)
	promptB := syms(2000, 8)
	runTurn(t, c, ix, "a0", promptA, nil) // chain A: 2 blocks
	// A live sequence shares chain A, then warmer chain B retains after,
	// leaving A's leaf at the LRU head.
	if _, m := ix.Acquire(append(append([]uint64{}, promptA...), 9), 0); m != 8 {
		t.Fatalf("acquire matched %d, want 8", m)
	}
	runTurn(t, c, ix, "b0", promptB, nil) // chain B: 2 blocks
	// 4 retained + 2 shared-live = 6 used, 2 free. An unreachable target
	// forces eviction to run until it stops on its own.
	ix.EnsureFree(8)
	if got := ix.Metrics().Retained; got != 3 {
		t.Fatalf("retained %d after EnsureFree, want 3 (only A's shared leaf evicted)", got)
	}
	if got := ix.Probe(append(append([]uint64{}, promptB...), 9)); got != 2 {
		t.Fatalf("warm chain B probe matched %d blocks after eviction, want 2", got)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPrefixReLeafedParentKeepsItsRecency(t *testing.T) {
	c, ix := newPrefixCache(t, 4, 16)
	x := syms(100, 8)  // chain X: blocks X0, X1
	z := syms(2000, 5) // chain Z: one block
	y := syms(3000, 5) // chain Y: one block
	runTurn(t, c, ix, "a", x, nil)
	runTurn(t, c, ix, "c", z, nil)
	// Refresh only X0 (a one-block probe), leaving X1 the oldest leaf.
	if got := ix.Probe(x[:5]); got != 1 {
		t.Fatalf("short probe matched %d blocks, want 1", got)
	}
	runTurn(t, c, ix, "d", y, nil)

	// Evict one: X1 is LRU. Its parent X0 re-leafs and must re-enter the
	// list at its own (probe-refreshed) recency — after Z, before Y.
	ix.EnsureFree(c.FreeBlocks() + 1)
	if got := ix.Probe(x[:5]); got != 1 {
		t.Fatal("X0 evicted with its child — chain torn down too far")
	}
	// Next eviction must take Z (older than the re-leafed X0).
	ix.EnsureFree(c.FreeBlocks() + 1)
	if got := ix.Probe(z); got != 0 {
		t.Fatal("Z survived an eviction it should have lost (re-leafed X0 inserted at the head)")
	}
	if got := ix.Probe(x[:5]); got != 1 {
		t.Fatal("X0 gone before Z")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Retaining after evictions recycles pooled entry shells; the index
	// must behave identically.
	before := ix.Metrics().Evictions
	runTurn(t, c, ix, "e", syms(4000, 9), nil)
	if got := ix.Probe(syms(4000, 9)); got != 2 {
		t.Fatalf("post-eviction retain matched %d blocks, want 2", got)
	}
	if ix.Metrics().Evictions != before {
		t.Fatal("retain must not evict")
	}
}

func TestPrefixReleaseStaleHandle(t *testing.T) {
	c, ix := newPrefixCache(t, 4, 8)
	h, _ := ix.Acquire(syms(0, 5), 5)
	if err := c.Free(h); err != nil {
		t.Fatal(err)
	}
	if err := ix.Release(h, syms(0, 5), nil); err != ErrUnknownSequence {
		t.Fatalf("stale release: got %v, want ErrUnknownSequence", err)
	}
}

func TestSecondPrefixIndexPanics(t *testing.T) {
	c, _ := newPrefixCache(t, 4, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("second NewPrefixIndex did not panic")
		}
	}()
	NewPrefixIndex(c)
}
