package kvcache

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func newTestCache(t *testing.T, blocks int) *Cache {
	t.Helper()
	c, err := New(Config{BlockSize: 16, NumBlocks: blocks, BytesPerToken: 1024})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// alloc creates a sequence of the given length, failing the test on
// error.
func alloc(t *testing.T, c *Cache, tokens int) Handle {
	t.Helper()
	h, err := c.Allocate(tokens, tokens)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// fork forks parent, failing the test on error.
func fork(t *testing.T, c *Cache, parent Handle) Handle {
	t.Helper()
	h, err := c.Fork(parent, 0)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestAllocateAndFree(t *testing.T) {
	c := newTestCache(t, 64)
	h := alloc(t, c, 100)
	st := c.Stats()
	if st.UsedBlocks != 7 { // ceil(100/16)
		t.Errorf("used blocks = %d, want 7", st.UsedBlocks)
	}
	if st.Sequences != 1 {
		t.Errorf("sequences = %d, want 1", st.Sequences)
	}
	if err := c.Free(h); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.UsedBlocks != 0 || st.FreeBlocks != 64 || st.Sequences != 0 {
		t.Errorf("after free: %+v", st)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestAllocateOutOfBlocks(t *testing.T) {
	c := newTestCache(t, 4)
	_, err := c.Allocate(100, 100) // needs 7 blocks
	if err != ErrOutOfBlocks {
		t.Fatalf("got %v, want ErrOutOfBlocks", err)
	}
	// Failed allocation must not leak.
	if st := c.Stats(); st.UsedBlocks != 0 || st.Sequences != 0 {
		t.Errorf("leaked after failed allocation: %+v", st)
	}
}

func TestAppendTokenBlockBoundary(t *testing.T) {
	c := newTestCache(t, 8)
	h := alloc(t, c, 16)
	if st := c.Stats(); st.UsedBlocks != 1 {
		t.Fatalf("want 1 block, got %d", st.UsedBlocks)
	}
	if err := c.Append(h, 1); err != nil { // crosses into block 2
		t.Fatal(err)
	}
	if st := c.Stats(); st.UsedBlocks != 2 {
		t.Errorf("after boundary append: %d blocks, want 2", st.UsedBlocks)
	}
	if n := h.s.length; n != 17 {
		t.Errorf("length = %d, want 17", n)
	}
}

func TestForkSharesBlocks(t *testing.T) {
	c := newTestCache(t, 32)
	parent := alloc(t, c, 64) // 4 blocks
	for i := 0; i < 7; i++ {
		fork(t, c, parent)
	}
	st := c.Stats()
	if st.UsedBlocks != 4 {
		t.Errorf("8-way fork must share all 4 blocks, used = %d", st.UsedBlocks)
	}
	if st.SharedBlocks != 4 {
		t.Errorf("shared blocks = %d, want 4", st.SharedBlocks)
	}
	if st.Sequences != 8 {
		t.Errorf("sequences = %d, want 8", st.Sequences)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestCopyOnWriteOnSharedTail(t *testing.T) {
	c := newTestCache(t, 32)
	// 20 tokens: tail block holds 4 tokens (not at boundary).
	p := alloc(t, c, 20)
	child := fork(t, c, p)
	before := c.Stats().UsedBlocks // 2 shared blocks
	if err := c.Append(child, 1); err != nil {
		t.Fatal(err)
	}
	after := c.Stats().UsedBlocks
	if after != before+1 {
		t.Errorf("CoW append must copy the shared tail: %d -> %d blocks", before, after)
	}
	// Parent unaffected.
	if n := p.s.length; n != 20 {
		t.Errorf("parent length changed to %d", n)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestForkThenFreeParent(t *testing.T) {
	c := newTestCache(t, 32)
	p := alloc(t, c, 48)
	child := fork(t, c, p)
	if err := c.Free(p); err != nil {
		t.Fatal(err)
	}
	// Child still owns the blocks.
	if st := c.Stats(); st.UsedBlocks != 3 {
		t.Errorf("blocks freed under the child: %+v", st)
	}
	if err := c.Free(child); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.UsedBlocks != 0 {
		t.Errorf("blocks leaked: %+v", st)
	}
}

// TestUnknownSequenceErrors checks that the zero Handle and a handle
// whose sequence was freed are rejected by every lifecycle call.
func TestUnknownSequenceErrors(t *testing.T) {
	c := newTestCache(t, 8)
	stale := alloc(t, c, 4)
	if err := c.Free(stale); err != nil {
		t.Fatal(err)
	}
	for name, h := range map[string]Handle{"zero": {}, "stale": stale} {
		if err := c.Append(h, 1); err != ErrUnknownSequence {
			t.Errorf("Append on %s handle = %v, want ErrUnknownSequence", name, err)
		}
		if err := c.Free(h); err != ErrUnknownSequence {
			t.Errorf("Free on %s handle = %v, want ErrUnknownSequence", name, err)
		}
		if _, err := c.Fork(h, 0); err != ErrUnknownSequence {
			t.Errorf("Fork from %s handle = %v, want ErrUnknownSequence", name, err)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestConfigForMemory(t *testing.T) {
	// 1 MiB budget, 16-token blocks, 1 KiB per token -> 64 blocks.
	cfg := ConfigForMemory(1<<20, 16, 1024)
	if cfg.NumBlocks != 64 {
		t.Errorf("NumBlocks = %d, want 64", cfg.NumBlocks)
	}
	if cfg.BlockSize != 16 {
		t.Errorf("BlockSize = %d, want 16", cfg.BlockSize)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{BlockSize: 0, NumBlocks: 1}).Validate(); err == nil {
		t.Error("zero BlockSize must fail")
	}
	if err := (Config{BlockSize: 16, NumBlocks: 0}).Validate(); err == nil {
		t.Error("zero NumBlocks must fail")
	}
	if _, err := New(Config{}); err == nil {
		t.Error("New with invalid config must fail")
	}
}

func TestPeakUsedHighWaterMark(t *testing.T) {
	c := newTestCache(t, 16)
	a := alloc(t, c, 64) // 4 blocks
	alloc(t, c, 64)      // 4 blocks
	if err := c.Free(a); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.PeakUsed != 8 {
		t.Errorf("peak = %d, want 8", st.PeakUsed)
	}
	if st.UsedBlocks != 4 {
		t.Errorf("used = %d, want 4", st.UsedBlocks)
	}
}

// Property: a random workload of allocate/append/fork/free operations
// never violates the cache invariants, and freeing everything returns the
// cache to empty.
func TestRandomWorkloadInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 99))
		c, err := New(Config{BlockSize: 16, NumBlocks: 128, BytesPerToken: 64})
		if err != nil {
			return false
		}
		var live []Handle
		for op := 0; op < 200; op++ {
			switch r.IntN(4) {
			case 0: // allocate
				n := 1 + r.IntN(100)
				if h, err := c.Allocate(n, n); err == nil {
					live = append(live, h)
				}
			case 1: // append
				if len(live) > 0 {
					_ = c.Append(live[r.IntN(len(live))], 1)
				}
			case 2: // fork
				if len(live) > 0 {
					if h, err := c.Fork(live[r.IntN(len(live))], 0); err == nil {
						live = append(live, h)
					}
				}
			case 3: // free
				if len(live) > 0 {
					i := r.IntN(len(live))
					if c.Free(live[i]) != nil {
						return false
					}
					live = append(live[:i], live[i+1:]...)
				}
			}
			if c.CheckInvariants() != nil || c.Stats().Sequences != len(live) {
				return false
			}
		}
		for _, h := range live {
			if c.Free(h) != nil {
				return false
			}
		}
		st := c.Stats()
		return st.UsedBlocks == 0 && st.FreeBlocks == st.TotalBlocks && st.Sequences == 0 && c.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
