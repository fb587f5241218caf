// Host-DRAM second tier for the prefix index. On device-memory
// pressure, evicted leaf entries are demoted to a capacity-bounded
// host-side store (its own LRU) instead of being dropped; a later
// Acquire that walks onto a host-resident chain segment promotes it
// back, charging a size-proportional restore cost over the host link
// (bytes / link bandwidth — the PCIe-class transfer the paper's §VI
// heterogeneous-computing discussion prices). Demotion is leaf-first,
// so host-resident entries always form contiguous tails of their hash
// chains: a host entry's children are host, and promotion proceeds
// top-down along the walked chain.
package kvcache

import "fmt"

// DefaultHostLinkBandwidth is the host-link transfer rate used when a
// HostTierConfig leaves LinkBandwidth zero: 16 GB/s, a PCIe 4.0 x8
// class link (the discrete-accelerator configuration the offload
// discussion assumes; an AGX Orin's unified memory would be faster,
// making this a conservative restore-cost model).
const DefaultHostLinkBandwidth = 16e9

// HostTierConfig sizes the host-DRAM tier behind a PrefixIndex.
type HostTierConfig struct {
	// Blocks bounds host-resident KV blocks; at capacity the
	// least-recently-used host leaf is dropped for good.
	Blocks int
	// LinkBandwidth is the host<->device transfer rate in bytes/second
	// charged on promotion (default DefaultHostLinkBandwidth).
	LinkBandwidth float64
}

func (c HostTierConfig) withDefaults() HostTierConfig {
	if c.LinkBandwidth <= 0 {
		c.LinkBandwidth = DefaultHostLinkBandwidth
	}
	return c
}

// Validate rejects unusable tier configurations.
func (c HostTierConfig) Validate() error {
	if c.Blocks <= 0 {
		return fmt.Errorf("kvcache: host tier Blocks must be positive, got %d", c.Blocks)
	}
	return nil
}

// hostTier is the host-side store: pure accounting (the simulator moves
// no bytes), bounded by cfg.Blocks, with its own LRU over host leaves.
type hostTier struct {
	cfg      HostTierConfig
	resident int // host-held blocks (one per host entry)
	lru      lruList
}

// AttachHostTier enables the host-DRAM second tier on the index.
// Must be called before any entry is retained, and at most once.
func (ix *PrefixIndex) AttachHostTier(cfg HostTierConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if ix.host != nil {
		return fmt.Errorf("kvcache: prefix index already has a host tier")
	}
	if len(ix.entries) > 0 {
		return fmt.Errorf("kvcache: host tier must attach before entries are retained")
	}
	ix.host = &hostTier{cfg: cfg.withDefaults()}
	return nil
}

// demoteOne moves the least-recently-used device leaf to the host tier,
// releasing its device block (the block frees now unless a live
// sequence still shares it). Reports false when no device leaf remains.
// A demotion that pushes the host tier past capacity drops the
// least-recently-used host leaf for good.
func (ix *PrefixIndex) demoteOne() bool {
	e := ix.lru.head
	if e == nil {
		return false
	}
	ix.lru.remove(e)
	ix.c.indexRef(e.block, -1)
	ix.c.release(e.block)
	e.block = hostBlock
	e.onHost = true
	ix.m.Retained--
	ix.m.Demotions++
	ix.m.HostRetained++
	ix.host.resident++
	// Leaf-first demotion: e's parent (device or nil — a host parent
	// would mean e was a device child of a host entry, which the
	// tail-contiguity invariant forbids) keeps the child, on the other
	// tier.
	if p := e.parent; p != nil {
		p.children--
		p.hostChildren++
		if p.children == 0 {
			// The parent has no device children left; it re-enters the
			// device-evictable list at its true recency.
			ix.lru.insertSorted(p)
		}
	}
	if e.hostChildren == 0 {
		// e is a host leaf. Its recency can exceed older host entries'
		// (probes refresh host recency without promoting), so it enters
		// sorted, not pushed.
		ix.host.lru.insertSorted(e)
	}
	for ix.host.resident > ix.host.cfg.Blocks {
		ix.dropHostLRU()
	}
	return true
}

// dropHostLRU evicts the least-recently-used host leaf for good. The
// host tier always has a leaf while it holds any entry (host entries
// form chain tails), so the call cannot stall.
func (ix *PrefixIndex) dropHostLRU() {
	h := ix.host.lru.head
	if h == nil {
		panic("kvcache: host tier over capacity with no evictable leaf")
	}
	ix.host.lru.remove(h)
	delete(ix.entries, h.hash)
	h.gen++
	ix.mut++
	ix.m.HostRetained--
	ix.m.Evictions++
	ix.host.resident--
	if p := h.parent; p != nil {
		p.hostChildren--
		if p.onHost && p.hostChildren == 0 {
			// A host parent with no children left becomes the chain's new
			// host leaf. Device parents are unaffected: host children never
			// block the device-evictable list.
			ix.host.lru.insertSorted(p)
		}
	}
	ix.pool = append(ix.pool, h)
}

// promote restores a host entry to the device tier, grabbing a device
// block for it. Reports false when the cache has no free block — the
// caller truncates the acquired chain there. The caller charges the
// restore cost for all promoted blocks in one step.
func (ix *PrefixIndex) promote(e *prefixEntry) bool {
	b, err := ix.c.grab()
	if err != nil {
		return false
	}
	ix.host.lru.remove(e) // no-op when e is an interior host entry
	e.block = b
	e.onHost = false
	ix.c.indexRef(b, 1)
	ix.host.resident--
	ix.m.HostRetained--
	ix.m.Retained++
	ix.m.Promotions++
	if p := e.parent; p != nil {
		// Promotion walks the chain top-down, so e's parent is already
		// device-resident (or nil): it gains a device child and stops
		// being device-evictable.
		p.hostChildren--
		p.children++
		ix.lru.remove(p)
	}
	if e.children == 0 {
		// e's remaining children (if any) are still host-resident, so e is
		// a device leaf. The walk just touched it, so its tick is the
		// newest on the list.
		ix.lru.push(e)
	}
	return true
}

// restoreCost returns the host-link seconds to move n blocks.
func (ix *PrefixIndex) restoreCost(n int) float64 {
	bytes := float64(n) * float64(ix.c.cfg.BlockSize) * float64(ix.c.cfg.BytesPerToken)
	return bytes / ix.host.cfg.LinkBandwidth
}

// Peek reports how many leading blocks of syms are resident on the
// device and host tiers, without refreshing recency or walk-memo state.
// Routing layers use it to rank replicas by session warmth; unlike
// Probe it never perturbs eviction order, so peeking at every dispatch
// is safe. Host-resident entries are chain tails, so the device count
// is always the contiguous head of the match.
func (ix *PrefixIndex) Peek(syms []uint64) (deviceBlocks, hostBlocks int) {
	bs := ix.c.cfg.BlockSize
	maxBlocks := (len(syms) - 1) / bs
	h := prefixSeed
	for k := 0; k < maxBlocks; k++ {
		for _, sym := range syms[k*bs : (k+1)*bs] {
			h = prefixMix(h, sym)
		}
		e := ix.entries[h]
		if e == nil {
			break
		}
		if e.onHost {
			hostBlocks++
		} else {
			deviceBlocks++
		}
	}
	return deviceBlocks, hostBlocks
}

// CheckInvariants audits the index and its cache: the cache's refcount
// reconciliation, tier residency counters, the chain-tail invariant
// (a host entry never has a device child), child-counter exactness,
// and LRU membership/order on both tiers. Used by property tests.
func (ix *PrefixIndex) CheckInvariants() error {
	if err := ix.c.CheckInvariants(); err != nil {
		return err
	}
	device, host := 0, 0
	children := make(map[*prefixEntry]int, len(ix.entries))
	hostChildren := make(map[*prefixEntry]int, len(ix.entries))
	for hh, e := range ix.entries {
		if e.hash != hh {
			return fmt.Errorf("kvcache: entry keyed %d carries hash %d", hh, e.hash)
		}
		if e.onHost {
			host++
			if e.block != hostBlock {
				return fmt.Errorf("kvcache: host entry %d still holds device block %d", hh, e.block)
			}
			if e.children != 0 {
				return fmt.Errorf("kvcache: host entry %d has %d device children (chains must demote tail-first)", hh, e.children)
			}
		} else {
			device++
			if e.block < 0 {
				return fmt.Errorf("kvcache: device entry %d has no block", hh)
			}
		}
		if p := e.parent; p != nil {
			if found := ix.entries[p.hash]; found != p {
				return fmt.Errorf("kvcache: entry %d has a dangling parent", hh)
			}
			if e.onHost {
				hostChildren[p]++
			} else {
				children[p]++
			}
		}
	}
	if device != ix.m.Retained {
		return fmt.Errorf("kvcache: %d device entries, Retained metric says %d", device, ix.m.Retained)
	}
	if host != ix.m.HostRetained {
		return fmt.Errorf("kvcache: %d host entries, HostRetained metric says %d", host, ix.m.HostRetained)
	}
	if ix.host != nil {
		if host != ix.host.resident {
			return fmt.Errorf("kvcache: %d host entries, tier resident counter says %d", host, ix.host.resident)
		}
		if ix.host.resident > ix.host.cfg.Blocks {
			return fmt.Errorf("kvcache: host tier holds %d blocks over its %d capacity", ix.host.resident, ix.host.cfg.Blocks)
		}
	} else if host != 0 {
		return fmt.Errorf("kvcache: %d host entries with no host tier attached", host)
	}
	for hh, e := range ix.entries {
		if e.children != children[e] {
			return fmt.Errorf("kvcache: entry %d counts %d device children, %d found", hh, e.children, children[e])
		}
		if e.hostChildren != hostChildren[e] {
			return fmt.Errorf("kvcache: entry %d counts %d host children, %d found", hh, e.hostChildren, hostChildren[e])
		}
		wantLRU := e.children == 0 && !e.onHost
		wantHostLRU := e.onHost && e.hostChildren == 0
		if e.inLRU != (wantLRU || wantHostLRU) {
			return fmt.Errorf("kvcache: entry %d LRU membership %v, want %v", hh, e.inLRU, wantLRU || wantHostLRU)
		}
	}
	if err := ix.lru.checkSorted("device"); err != nil {
		return err
	}
	if ix.host != nil {
		if err := ix.host.lru.checkSorted("host"); err != nil {
			return err
		}
	}
	return nil
}

// checkSorted verifies the list links are consistent and lastUse is
// non-decreasing front to back.
func (l *lruList) checkSorted(name string) error {
	var prev *prefixEntry
	for e := l.head; e != nil; e = e.next {
		if e.prev != prev {
			return fmt.Errorf("kvcache: %s LRU back-link broken at block %d", name, e.block)
		}
		if prev != nil && prev.lastUse > e.lastUse {
			return fmt.Errorf("kvcache: %s LRU out of order (%d after %d)", name, e.lastUse, prev.lastUse)
		}
		prev = e
	}
	if l.tail != prev {
		return fmt.Errorf("kvcache: %s LRU tail does not terminate the list", name)
	}
	return nil
}
