// Prefix index: cross-request KV reuse in the style of vLLM's automatic
// prefix caching and SGLang's RadixAttention. Completed sequences donate
// their full blocks to a content-addressed index (chained block hashes
// over token symbols); a later request whose prompt shares a prefix
// re-acquires those blocks with fork-style refcount bumps and only
// prefills the unmatched suffix. Retained blocks are reclaimable
// capacity: when the free list runs low, the least-recently-used leaf
// entries are evicted first, so hot session histories survive while cold
// ones make room.
package kvcache

import (
	"fmt"
	"sort"
)

// prefixSeed is the FNV-64a offset basis; block hash chains start here.
const prefixSeed uint64 = 14695981039346656037

// prefixMix folds one 64-bit token symbol into a running hash with a
// single xor-multiply-rotate step (an FNV-style mix widened to 64-bit
// lanes). Prefix matching hashes every prompt token on admission, so the
// step must be one multiply, not eight.
func prefixMix(h, sym uint64) uint64 {
	h = (h ^ sym) * 0x9e3779b97f4a7c15
	return h>>29 | h<<35
}

// PrefixMetrics counts index activity since construction.
type PrefixMetrics struct {
	// Lookups counts Acquire calls; Hits those that matched >= 1 block.
	Lookups int
	Hits    int
	// SavedTokens is the total prefill work avoided by matches.
	SavedTokens int
	// Retained is the current number of index-held device blocks.
	Retained int
	// Evictions counts entries dropped for good under capacity pressure
	// (demotions to the host tier are not evictions — the state survives).
	Evictions int
	// Host-tier counters, all zero without an attached host tier.
	// Demotions and Promotions count block moves device->host and back;
	// HostHits counts Acquires that restored at least one host block;
	// HostRetained is the current host-resident block count.
	Demotions    int
	Promotions   int
	HostHits     int
	HostRetained int
	// RestoreSeconds accumulates host-link transfer time charged by
	// promotions (blocks x block bytes / link bandwidth). The engine
	// folds per-Acquire deltas into that request's TTFT.
	RestoreSeconds float64
	// CrashWipes counts CrashReset calls; CrashDropped the entries they
	// destroyed (device entries always; host entries unless the tier was
	// kept and their whole chain was host-resident).
	CrashWipes   int
	CrashDropped int
}

// hostBlock marks an entry whose block contents live on the host tier:
// it holds no device block until promoted back.
const hostBlock = -1

// prefixEntry is one retained block keyed by its chained content hash.
type prefixEntry struct {
	hash uint64
	// block is the device block holding the contents, or hostBlock when
	// the entry has been demoted to the host tier.
	block  int
	parent *prefixEntry
	// children counts device-resident entries hashing through this one;
	// only device leaves (children == 0) are device-evictable, so a
	// chain always demotes or evicts tail-first. hostChildren counts
	// host-resident children separately: they never block device
	// eviction (the demoted tail below rides along), but pin a host
	// entry against host-tier eviction.
	children     int
	hostChildren int
	// lastUse is the logical tick of the most recent match through this
	// entry; each tier's evictable list stays sorted ascending by it.
	lastUse uint64
	// gen counts the times this (pooled, reusable) shell has left the
	// index. A prefixLink records the gen it matched under, so a link
	// whose entry was evicted, dropped or recycled since is recognised
	// without a map lookup.
	gen uint64
	// prev/next link the entry into its tier's evictable LRU list while
	// it is a leaf there (least-recent at the front).
	prev, next *prefixEntry
	// onHost marks the entry's contents as host-resident. Host entries
	// form contiguous chain tails: a host entry never has a device child.
	onHost bool
	inLRU  bool
}

// prefixLink is one matched block of a walked chain: the entry, the gen
// it was matched under, and the block's chained hash. While e.gen still
// equals gen the entry is the one indexed under hash; otherwise the
// hash is looked up again.
type prefixLink struct {
	e    *prefixEntry
	gen  uint64
	hash uint64
}

// live reports whether the link's entry has stayed in the index since
// the link was made.
func (l prefixLink) live() bool { return l.e.gen == l.gen }

// lruList is one tier's evictable-leaf list, sorted ascending by
// lastUse (least-recent at the head).
type lruList struct {
	head, tail *prefixEntry
}

// PrefixIndex maps chained block hashes to retained cache blocks. It is
// bound to one Cache and, like the Cache, is not safe for concurrent
// use. At most one index may be attached to a cache.
type PrefixIndex struct {
	c       *Cache
	entries map[uint64]*prefixEntry
	// lru is the device-evictable leaf list (LRU at head).
	lru lruList
	// host is the optional host-DRAM second tier (nil when disabled):
	// device eviction demotes into it instead of dropping entries.
	host *hostTier
	// tick is the logical clock stamping lastUse.
	tick uint64
	m    PrefixMetrics
	// match is the scratch chain reused across Probe/Acquire walks, and
	// miss the chained hash of the first unmatched block when the walk
	// stopped short of its last block. The memo fields identify the last
	// walked syms slice (by backing array and length) and the index
	// mutation count it ran under, so the Probe-then-Acquire admission
	// pattern hashes the prompt once, not twice, and a re-probe after a
	// mutation revalidates match instead of re-hashing. mut is bumped by
	// every entry insert and eviction.
	match    []prefixLink
	miss     uint64
	memoSym0 *uint64
	memoLen  int
	memoMut  uint64
	mut      uint64
	// pool recycles evicted entry shells so steady-state retain/evict
	// churn is allocation-free; slab batch-allocates fresh shells so
	// first-time retention costs one allocation per 256 entries.
	pool []*prefixEntry
	slab []prefixEntry
}

// NewPrefixIndex attaches a prefix index to the cache. The cache starts
// tracking index-held references so CheckInvariants stays exact.
func NewPrefixIndex(c *Cache) *PrefixIndex {
	if c.indexRefs != nil {
		panic("kvcache: cache already has a prefix index attached")
	}
	// Non-nil zero-length sentinel: marks the index attached while growing
	// lazily with the watermark via Cache.indexRef.
	c.indexRefs = make([]int, 0)
	return &PrefixIndex{c: c, entries: make(map[uint64]*prefixEntry)}
}

// Metrics returns a snapshot of the index counters.
func (ix *PrefixIndex) Metrics() PrefixMetrics { return ix.m }

// walk matches syms against the index block by block, refreshing every
// matched entry's recency, and leaves the chain in ix.match. Only full
// blocks participate, and at least one token is always left unmatched so
// the engine has a suffix to prefill (real engines recompute the last
// prompt token to produce first-step logits). A repeat walk of the same
// (never-mutated) syms slice — the engine's Probe-then-Acquire
// admission, and its per-event retries of a blocked stream head — does
// not re-hash the prompt: against an unmutated index it reuses the
// previous result, and after a mutation it revalidates the previous
// chain and hashes only the blocks past its old miss.
func (ix *PrefixIndex) walk(syms []uint64) []prefixLink {
	if len(syms) == 0 {
		ix.match = ix.match[:0]
		return ix.match
	}
	same := ix.memoSym0 == &syms[0] && ix.memoLen == len(syms)
	if same && ix.memoMut == ix.mut {
		return ix.match
	}
	bs := ix.c.cfg.BlockSize
	maxBlocks := (len(syms) - 1) / bs
	h, k := prefixSeed, 0
	if !same {
		ix.match = ix.match[:0]
	} else if ix.revalidate(maxBlocks) {
		h, k = ix.match[len(ix.match)-1].hash, len(ix.match)
	} else {
		k = maxBlocks // the chain ends inside the revalidated part
	}
	for ; k < maxBlocks; k++ {
		for _, sym := range syms[k*bs : (k+1)*bs] {
			h = prefixMix(h, sym)
		}
		e := ix.entries[h]
		if e == nil {
			ix.miss = h
			break
		}
		ix.touch(e)
		ix.match = append(ix.match, prefixLink{e: e, gen: e.gen, hash: h})
	}
	ix.memoSym0, ix.memoLen, ix.memoMut = &syms[0], len(syms), ix.mut
	return ix.match
}

// revalidate redoes the previous walk of the same syms after the index
// changed, touching entries in exactly the order a full walk would: a
// live link is touched in place, a removed one is looked up again by its
// hash (the chain ends where that hash is gone), and past the last link
// the old miss hash is looked up once. It reports whether that lookup
// extended the chain, so the walk must go on hashing past it.
func (ix *PrefixIndex) revalidate(maxBlocks int) bool {
	for i := range ix.match {
		l := &ix.match[i]
		if !l.live() {
			e := ix.entries[l.hash]
			if e == nil {
				ix.miss = l.hash
				ix.match = ix.match[:i]
				return false
			}
			l.e, l.gen = e, e.gen
		}
		ix.touch(l.e)
	}
	if len(ix.match) == maxBlocks {
		return false
	}
	e := ix.entries[ix.miss]
	if e == nil {
		return false
	}
	ix.touch(e)
	ix.match = append(ix.match, prefixLink{e: e, gen: e.gen, hash: ix.miss})
	return true
}

// Probe returns how many blocks of syms the index currently holds on
// the device tier, refreshing the whole matched chain's recency (host
// segments included). It allocates nothing and takes no blocks.
// Host-resident matches are excluded deliberately: promoting them back
// consumes device capacity exactly like a cold prefill of the same
// span, so admission control must budget for them as unmatched demand.
func (ix *PrefixIndex) Probe(syms []uint64) int {
	chain := ix.walk(syms)
	for i, l := range chain {
		if l.e.onHost {
			// Host entries are contiguous chain tails: the device-resident
			// match is everything before the first one.
			return i
		}
	}
	return len(chain)
}

// Acquire creates seqID seeded with the longest indexed prefix of syms
// (fork-style: matched blocks are shared copy-on-write via refcount
// bumps) and returns the number of tokens reused. A zero return means a
// cold start; the sequence then exists with length 0 and the caller
// appends the whole prompt. A match that walks onto a host-resident
// chain tail promotes it back to the device tier block by block,
// charging RestoreSeconds for the host-link transfer; if the cache runs
// out of blocks mid-promotion the chain is truncated there (the
// already-promoted prefix is kept). The sequence keeps the acquired
// chain, so Release with the same syms slice does not look it up again.
// The caller must not evict between a Probe and the Acquire that relies
// on it — both walk the same index state.
func (ix *PrefixIndex) Acquire(seqID string, syms []uint64) (int, error) {
	if _, ok := ix.c.seqs[seqID]; ok {
		return 0, ErrSequenceExists
	}
	ix.m.Lookups++
	chain := ix.walk(syms)
	promoted := 0
	for i, l := range chain {
		if !l.e.onHost {
			continue
		}
		if !ix.promote(l.e) {
			chain = chain[:i]
			break
		}
		promoted++
	}
	if promoted > 0 {
		ix.m.HostHits++
		ix.m.RestoreSeconds += ix.restoreCost(promoted)
	}
	s := ix.c.newSequence(len(chain))
	for _, l := range chain {
		ix.c.retain(l.e.block)
		s.blocks = append(s.blocks, l.e.block)
	}
	if len(chain) > 0 {
		s.chain = append(s.chain, chain...)
		s.chainSym0 = &syms[0]
	}
	s.length = len(chain) * ix.c.cfg.BlockSize
	ix.c.seqs[seqID] = s
	if s.length > 0 {
		ix.m.Hits++
		ix.m.SavedTokens += s.length
	}
	return s.length, nil
}

// Release frees the handle's sequence while retaining every full block
// whose content is identified by promptSyms followed by outputSyms. Blocks
// past the identified (or partial-tail) region are released normally. A
// block already indexed under the same chain hash is not re-retained: the
// existing entry wins and the sequence's reference is simply dropped.
// When promptSyms is the slice the sequence was acquired with, the
// acquired blocks come from the chain Acquire kept (a link whose entry
// has left the index since is looked up by its hash) and only the blocks
// past it are hashed.
func (ix *PrefixIndex) Release(h Handle, promptSyms, outputSyms []uint64) error {
	if !ix.c.valid(h) {
		return ErrUnknownSequence
	}
	s := h.s
	bs := ix.c.cfg.BlockSize
	covered := len(promptSyms) + len(outputSyms)
	if covered > s.length {
		covered = s.length
	}
	full := covered / bs
	chain := s.chain
	if len(chain) > 0 && (len(promptSyms) < len(chain)*bs || &promptSyms[0] != s.chainSym0) {
		chain = nil // other content than the chain was matched over
	}
	hh := prefixSeed
	var parent *prefixEntry
	for k := 0; k < full; k++ {
		var e *prefixEntry
		if k < len(chain) {
			l := chain[k]
			hh, e = l.hash, l.e
			if !l.live() {
				e = ix.entries[hh]
			}
		} else {
			for i := k * bs; i < (k+1)*bs; i++ {
				if i < len(promptSyms) {
					hh = prefixMix(hh, promptSyms[i])
				} else {
					hh = prefixMix(hh, outputSyms[i-len(promptSyms)])
				}
			}
			e = ix.entries[hh]
		}
		if e == nil {
			if parent != nil && parent.onHost {
				// Growing a device entry under a host-resident parent would
				// break the chain-tail invariant (host entries never have
				// device children). Demotion and host eviction are both
				// leaf-first, so nothing deeper can be indexed either: stop
				// retaining here and release the rest normally.
				break
			}
			ix.tick++
			e = ix.newEntry()
			*e = prefixEntry{hash: hh, block: s.blocks[k], parent: parent, lastUse: ix.tick, gen: e.gen}
			ix.c.retain(e.block)
			ix.c.indexRef(e.block, 1)
			ix.entries[hh] = e
			ix.mut++
			if parent != nil {
				parent.children++
				ix.lru.remove(parent) // interior entries are not evictable
			}
			ix.lru.push(e)
			ix.m.Retained++
		} else {
			ix.touch(e)
		}
		parent = e
	}
	ix.c.freeSeq(h.id, s)
	return nil
}

// EnsureFree evicts (or, with a host tier, demotes) least-recently-used
// device leaf entries until the cache has at least n free blocks,
// nothing evictable remains, or an eviction round reclaims no capacity.
// The last condition is load-bearing: an evicted leaf whose block is
// still shared with a live sequence frees nothing now (the block frees
// when the sequence does), and before the stop a single admission under
// that kind of pressure would keep evicting zero-reclaim leaves until
// the entire index — every warm session history — was destroyed for no
// capacity at all.
func (ix *PrefixIndex) EnsureFree(n int) {
	for ix.c.FreeBlocks() < n {
		before := ix.c.FreeBlocks()
		if !ix.evictOne() {
			return
		}
		if ix.c.FreeBlocks() == before {
			return
		}
	}
}

// evictOne reclaims the least-recently-used device leaf entry —
// demoting it to the host tier when one is attached, dropping it for
// good otherwise — reporting false when none remains.
func (ix *PrefixIndex) evictOne() bool {
	if ix.host != nil {
		return ix.demoteOne()
	}
	e := ix.lru.head
	if e == nil {
		return false
	}
	ix.lru.remove(e)
	delete(ix.entries, e.hash)
	e.gen++
	ix.mut++
	ix.c.indexRef(e.block, -1)
	ix.c.release(e.block)
	ix.m.Retained--
	ix.m.Evictions++
	if p := e.parent; p != nil {
		p.children--
		if p.children == 0 {
			// The parent becomes a leaf again; re-enter the evictable list
			// at its true recency, so a cold chain keeps tearing down
			// before any recently-matched chain is touched.
			ix.lru.insertSorted(p)
		}
	}
	ix.pool = append(ix.pool, e)
	return true
}

// CrashReset models a device power loss: every device-resident entry is
// dropped — HBM contents do not survive a crash — and its block
// reference released. With keepHost (and a host tier attached), host
// entries whose entire hash chain is host-resident survive, modeling
// persistent host DRAM; a host tail whose upper chain lived on the
// device is orphaned by the wipe (its chained hashes can no longer be
// reached from the chain root) and is dropped with it. Without keepHost
// the host tier is cleared too. Live sequences are untouched: the
// serving layer aborts them separately, and their blocks free when they
// do. Index invariants hold afterwards.
func (ix *PrefixIndex) CrashReset(keepHost bool) {
	ix.m.CrashWipes++
	if len(ix.entries) == 0 {
		return
	}
	survives := func(e *prefixEntry) bool {
		if !keepHost || !e.onHost {
			return false
		}
		for p := e; p != nil; p = p.parent {
			if !p.onHost {
				return false
			}
		}
		return true
	}
	// Visit entries in ascending lastUse (ticks are unique), not map
	// order: the order dropped blocks return to the free list decides
	// which blocks later grabs get, and the order recycled shells reach
	// the pool, so it must not vary run to run.
	all := make([]*prefixEntry, 0, len(ix.entries))
	for _, e := range ix.entries {
		all = append(all, e)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].lastUse < all[j].lastUse })
	kept := all[:0]
	for _, e := range all {
		if survives(e) {
			kept = append(kept, e)
			continue
		}
		if e.onHost {
			ix.m.HostRetained--
			ix.host.resident--
		} else {
			ix.c.indexRef(e.block, -1)
			ix.c.release(e.block)
			ix.m.Retained--
		}
		ix.m.CrashDropped++
		e.gen++
		ix.pool = append(ix.pool, e)
	}
	// Rebuild wholesale. Survivors keep their exact counters: a
	// surviving host entry's parent is host and surviving (the whole
	// chain is), every host child of a survivor survives with it, and
	// host entries never have device children — so children and
	// hostChildren are already right. Only the map and the LRU lists
	// need reconstructing, in the survivors' ascending lastUse order.
	ix.entries = make(map[uint64]*prefixEntry, len(kept))
	ix.lru = lruList{}
	if ix.host != nil {
		ix.host.lru = lruList{}
	}
	for _, e := range kept {
		e.prev, e.next, e.inLRU = nil, nil, false
		ix.entries[e.hash] = e
	}
	for _, e := range kept {
		if e.hostChildren == 0 {
			ix.host.lru.push(e) // ascending lastUse: push keeps it sorted
		}
	}
	ix.mut++
}

// newEntry returns an entry shell, recycled from the pool when possible
// and carved from the current slab otherwise.
func (ix *PrefixIndex) newEntry() *prefixEntry {
	if n := len(ix.pool); n > 0 {
		e := ix.pool[n-1]
		ix.pool[n-1] = nil
		ix.pool = ix.pool[:n-1]
		return e
	}
	if len(ix.slab) == 0 {
		ix.slab = make([]prefixEntry, 256)
	}
	e := &ix.slab[0]
	ix.slab = ix.slab[1:]
	return e
}

// touch stamps an entry's recency and, if it is evictable, moves it to
// the MRU end of its tier's list.
func (ix *PrefixIndex) touch(e *prefixEntry) {
	ix.tick++
	e.lastUse = ix.tick
	if !e.inLRU {
		return
	}
	l := &ix.lru
	if e.onHost {
		l = &ix.host.lru
	}
	if l.tail == e {
		return
	}
	l.remove(e)
	l.push(e)
}

// push appends e at the MRU end (callers guarantee e.lastUse is the
// newest tick, keeping the list sorted).
func (l *lruList) push(e *prefixEntry) {
	if e.inLRU {
		panic(fmt.Sprintf("kvcache: prefix entry for block %d already on LRU list", e.block))
	}
	e.inLRU = true
	e.prev = l.tail
	e.next = nil
	if l.tail != nil {
		l.tail.next = e
	} else {
		l.head = e
	}
	l.tail = e
}

// insertSorted places e at the position its lastUse dictates (the list
// is sorted ascending). Used when an interior entry becomes a leaf
// again: its recency predates entries touched since, so it usually
// lands near the front after a short walk from the tail.
func (l *lruList) insertSorted(e *prefixEntry) {
	at := l.tail // insert after at; nil means at the head
	for at != nil && at.lastUse > e.lastUse {
		at = at.prev
	}
	if at == l.tail {
		l.push(e)
		return
	}
	if e.inLRU {
		panic(fmt.Sprintf("kvcache: prefix entry for block %d already on LRU list", e.block))
	}
	e.inLRU = true
	if at == nil {
		e.prev = nil
		e.next = l.head
		l.head.prev = e
		l.head = e
		return
	}
	e.prev = at
	e.next = at.next
	at.next.prev = e
	at.next = e
}

// remove unlinks e if it is on the list.
func (l *lruList) remove(e *prefixEntry) {
	if !e.inLRU {
		return
	}
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
	e.inLRU = false
}
