package kvcache

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// TestForkAppendProperty drives interleaved Fork / Append / Free
// traffic — the exact path the prefix index leans on — and checks the
// full invariant set after every operation: refcounts reconcile against
// sequence block tables, copy-on-write tail copies never corrupt the
// free list, the O(1) shared counter matches the scan, and no block
// leaks once everything is freed.
func TestForkAppendProperty(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(seed, 0x5eed))
			c, err := New(Config{BlockSize: 4, NumBlocks: 48})
			if err != nil {
				t.Fatal(err)
			}
			type live struct {
				id     string
				handle Handle
				length int
			}
			var seqs []live
			next := 0
			check := func(op string) {
				t.Helper()
				if err := c.CheckInvariants(); err != nil {
					t.Fatalf("after %s: %v", op, err)
				}
			}

			for op := 0; op < 400; op++ {
				switch k := rng.IntN(10); {
				case k < 3 && len(seqs) < 12: // allocate
					id := fmt.Sprintf("s%d", next)
					next++
					tokens := 1 + rng.IntN(10)
					h, err := c.Allocate(tokens, tokens)
					if err != nil {
						if err != ErrOutOfBlocks {
							t.Fatalf("allocate %s: %v", id, err)
						}
						check("failed allocate")
						continue
					}
					seqs = append(seqs, live{id: id, handle: h, length: tokens})
					check("allocate " + id)
				case k < 6 && len(seqs) > 0: // append through the handle
					i := rng.IntN(len(seqs))
					n := 1 + rng.IntN(9)
					err := c.Append(seqs[i].handle, n)
					got := seqs[i].handle.s.length
					if err != nil {
						if err != ErrOutOfBlocks {
							t.Fatalf("append %s: %v", seqs[i].id, err)
						}
						// Partial progress must still reconcile exactly.
						seqs[i].length = got
						check("failed append " + seqs[i].id)
						continue
					}
					seqs[i].length += n
					if got != seqs[i].length {
						t.Fatalf("append %s: length %d, want %d", seqs[i].id, got, seqs[i].length)
					}
					check("append " + seqs[i].id)
				case k < 8 && len(seqs) > 0 && len(seqs) < 12: // fork
					i := rng.IntN(len(seqs))
					id := fmt.Sprintf("s%d", next)
					next++
					h, err := c.Fork(seqs[i].handle, 0)
					if err != nil {
						t.Fatalf("fork %s -> %s: %v", seqs[i].id, id, err)
					}
					seqs = append(seqs, live{id: id, handle: h, length: seqs[i].length})
					check("fork " + id)
				case len(seqs) > 0: // free
					i := rng.IntN(len(seqs))
					if err := c.Free(seqs[i].handle); err != nil {
						t.Fatalf("free %s: %v", seqs[i].id, err)
					}
					// The handle is dead now; every path must reject it.
					if err := c.Append(seqs[i].handle, 1); err != ErrUnknownSequence {
						t.Fatalf("stale handle append: got %v, want ErrUnknownSequence", err)
					}
					seqs[i] = seqs[len(seqs)-1]
					seqs = seqs[:len(seqs)-1]
					check("free")
				}
			}

			for _, s := range seqs {
				if err := c.Free(s.handle); err != nil {
					t.Fatalf("final free %s: %v", s.id, err)
				}
			}
			check("final drain")
			st := c.Stats()
			if st.FreeBlocks != st.TotalBlocks {
				t.Fatalf("leak: %d of %d blocks free after drain", st.FreeBlocks, st.TotalBlocks)
			}
			if st.SharedBlocks != 0 {
				t.Fatalf("shared counter %d after drain, want 0", st.SharedBlocks)
			}
		})
	}
}
