package kvcache

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"
)

// snapshot serializes a cache's complete observable state — every live
// sequence's length and block table in shell-creation order, the shell
// pool's order, refcounts, and the free list — so two caches driven
// through the same operations in different ways can be compared exactly.
func snapshot(c *Cache) string {
	var b strings.Builder
	index := make(map[*sequence]int, len(c.shells))
	for i, s := range c.shells {
		index[s] = i
		if !s.freed {
			fmt.Fprintf(&b, "seq #%d len=%d blocks=%v\n", i, s.length, s.blocks)
		}
	}
	pool := make([]int, len(c.pool))
	for i, s := range c.pool {
		pool[i] = index[s]
	}
	fmt.Fprintf(&b, "live=%d pool=%v\nrefcount=%v\nfree=%v\n", c.live, pool, c.refcount, c.free)
	return b.String()
}

// appendLoop emulates the engine's historical per-token decode loop:
// n Append(h, 1) calls, stopping at the first error.
func appendLoop(c *Cache, h Handle, n int) error {
	for t := 0; t < n; t++ {
		if err := c.Append(h, 1); err != nil {
			return err
		}
	}
	return nil
}

// TestAppendTokensEquivalence drives two caches through one random
// workload — allocate, fork, free, and variable-size appends — appending
// one token per Append call on one and the whole chunk in one Append
// call on the other. After every operation both must agree on the error
// returned and on the full cache state (lengths, block tables, shell
// pool, refcounts, free-list order), including the partial progress
// left behind when an append runs out of blocks.
func TestAppendTokensEquivalence(t *testing.T) {
	for _, bs := range []int{1, 3, 16} {
		for _, blocks := range []int{8, 64} {
			t.Run(fmt.Sprintf("bs%d_blocks%d", bs, blocks), func(t *testing.T) {
				for seed := uint64(0); seed < 8; seed++ {
					testEquivalenceSeed(t, bs, blocks, seed)
				}
			})
		}
	}
}

func testEquivalenceSeed(t *testing.T, blockSize, numBlocks int, seed uint64) {
	t.Helper()
	cfg := Config{BlockSize: blockSize, NumBlocks: numBlocks, BytesPerToken: 64}
	newCache := func() *Cache {
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	tokenwise, bulk := newCache(), newCache()
	// live holds each live sequence's handle on both caches.
	type pair struct{ a, b Handle }
	var live []pair

	r := rand.New(rand.NewPCG(seed, 41))
	check := func(op string, errA, errB error) {
		t.Helper()
		if errA != errB {
			t.Fatalf("seed %d %s: error divergence: tokenwise=%v bulk=%v", seed, op, errA, errB)
		}
		a, b := snapshot(tokenwise), snapshot(bulk)
		if a != b {
			t.Fatalf("seed %d %s: state divergence\ntokenwise:\n%s\nbulk:\n%s", seed, op, a, b)
		}
		for name, c := range map[string]*Cache{"tokenwise": tokenwise, "bulk": bulk} {
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("seed %d %s: %s invariants: %v", seed, op, name, err)
			}
		}
	}

	for op := 0; op < 250; op++ {
		switch r.IntN(5) {
		case 0: // allocate
			tokens := r.IntN(3 * blockSize)
			ha, errA := tokenwise.Allocate(tokens, tokens)
			hb, errB := bulk.Allocate(tokens, tokens)
			if errA == nil {
				live = append(live, pair{ha, hb})
			}
			check(fmt.Sprintf("allocate %d", tokens), errA, errB)
		case 1, 2: // append a variable-size chunk (the interesting op)
			if len(live) == 0 {
				continue
			}
			i := r.IntN(len(live))
			n := r.IntN(3*blockSize + 5)
			errA := appendLoop(tokenwise, live[i].a, n)
			errB := bulk.Append(live[i].b, n)
			check(fmt.Sprintf("append #%d %d", i, n), errA, errB)
		case 3: // fork
			if len(live) == 0 {
				continue
			}
			i := r.IntN(len(live))
			ha, errA := tokenwise.Fork(live[i].a, 0)
			hb, errB := bulk.Fork(live[i].b, 0)
			if errA == nil {
				live = append(live, pair{ha, hb})
			}
			check(fmt.Sprintf("fork #%d", i), errA, errB)
		case 4: // free
			if len(live) == 0 {
				continue
			}
			i := r.IntN(len(live))
			p := live[i]
			live = append(live[:i], live[i+1:]...)
			check(fmt.Sprintf("free #%d", i), tokenwise.Free(p.a), bulk.Free(p.b))
		}
	}
}

func TestAppendTokensZeroAndUnknown(t *testing.T) {
	c := newTestCache(t, 8)
	ghost := alloc(t, c, 4)
	if err := c.Free(ghost); err != nil {
		t.Fatal(err)
	}
	if err := c.Append(ghost, 4); err != ErrUnknownSequence {
		t.Errorf("Append on a freed sequence = %v, want ErrUnknownSequence", err)
	}
	h := alloc(t, c, 10)
	if err := c.Append(h, 0); err != nil {
		t.Errorf("Append n=0 = %v, want nil", err)
	}
	if err := c.Append(h, -3); err != nil {
		t.Errorf("Append n<0 = %v, want nil (no-op)", err)
	}
	if n := h.s.length; n != 10 {
		t.Errorf("length after no-op appends = %d, want 10", n)
	}
}

// TestHandleLifecycle pins the staleness contract: a handle dies with its
// sequence, whether Free or Release ended it, a recycled shell does not
// revive it, and handles from another cache are rejected.
func TestHandleLifecycle(t *testing.T) {
	c := newTestCache(t, 16)
	h := alloc(t, c, 20)
	if err := c.Append(h, 30); err != nil {
		t.Fatal(err)
	}
	if n := h.s.length; n != 50 {
		t.Errorf("length = %d, want 50", n)
	}
	if err := c.Free(h); err != nil {
		t.Fatal(err)
	}
	if err := c.Free(h); err != ErrUnknownSequence {
		t.Errorf("double Free = %v, want ErrUnknownSequence", err)
	}
	if err := c.Append(h, 1); err != ErrUnknownSequence {
		t.Errorf("append through stale handle = %v, want ErrUnknownSequence", err)
	}
	// The next sequence reuses the pooled shell; the old handle must
	// still be rejected while the new one works.
	hb := alloc(t, c, 4)
	if hb.s != h.s {
		t.Fatal("freed shell was not recycled")
	}
	if err := c.Append(h, 1); err != ErrUnknownSequence {
		t.Errorf("append through a recycled shell's old handle = %v, want ErrUnknownSequence", err)
	}
	if err := c.Append(hb, 1); err != nil {
		t.Errorf("append through the new handle = %v", err)
	}
	// Release through an attached index also invalidates the handle.
	ix := NewPrefixIndex(c)
	if err := ix.Release(hb, syms(0, 5), nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Append(hb, 1); err != ErrUnknownSequence {
		t.Errorf("append after Release = %v, want ErrUnknownSequence", err)
	}
	// Handles are cache-scoped.
	other := newTestCache(t, 16)
	ha := alloc(t, other, 4)
	if err := c.Append(ha, 1); err != ErrUnknownSequence {
		t.Errorf("foreign handle = %v, want ErrUnknownSequence", err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestAppendTokensPartialProgress pins the documented out-of-blocks
// behavior: the sequence is left exactly where a token-wise loop would
// have stopped.
func TestAppendTokensPartialProgress(t *testing.T) {
	c := newTestCache(t, 4) // 4 blocks of 16 tokens
	h := alloc(t, c, 24)    // 2 blocks, 8 free slots in tail
	err := c.Append(h, 100) // wants 8 more blocks; only 2 exist
	if err != ErrOutOfBlocks {
		t.Fatalf("got %v, want ErrOutOfBlocks", err)
	}
	// Tail filled (8) plus two whole grabbed blocks (32) = 64 tokens.
	if n := h.s.length; n != 64 {
		t.Errorf("partial length = %d, want 64", n)
	}
	if st := c.Stats(); st.UsedBlocks != 4 || st.FreeBlocks != 0 {
		t.Errorf("after partial append: %+v", st)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}
