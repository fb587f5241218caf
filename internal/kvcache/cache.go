// Package kvcache implements a paged key/value cache in the style of
// vLLM's PagedAttention: fixed-size token blocks, per-sequence block
// tables, and reference-counted copy-on-write sharing. The engine uses it
// to account for memory capacity and to share prompt KV across parallel
// test-time-scaling decoders (§V-E: "the prefill phase is executed once
// ... during the decode phase we increase the batch size").
package kvcache

import (
	"errors"
	"fmt"
)

// Common error conditions.
var (
	// ErrOutOfBlocks means the allocation would exceed cache capacity.
	ErrOutOfBlocks = errors.New("kvcache: out of blocks")
	// ErrUnknownSequence means the sequence ID has no allocation.
	ErrUnknownSequence = errors.New("kvcache: unknown sequence")
	// ErrSequenceExists means Allocate was called twice for one ID.
	ErrSequenceExists = errors.New("kvcache: sequence already allocated")
)

// Config sizes a cache.
type Config struct {
	BlockSize     int   // tokens per block (vLLM default: 16)
	NumBlocks     int   // total blocks available
	BytesPerToken int64 // KV bytes one token occupies (from model.Arch)
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.BlockSize <= 0 {
		return fmt.Errorf("kvcache: BlockSize must be positive, got %d", c.BlockSize)
	}
	if c.NumBlocks <= 0 {
		return fmt.Errorf("kvcache: NumBlocks must be positive, got %d", c.NumBlocks)
	}
	return nil
}

// ConfigForMemory sizes a cache to fill the given byte budget.
func ConfigForMemory(budgetBytes int64, blockSize int, bytesPerToken int64) Config {
	if blockSize <= 0 {
		blockSize = 16
	}
	blockBytes := int64(blockSize) * bytesPerToken
	n := 0
	if blockBytes > 0 {
		n = int(budgetBytes / blockBytes)
	}
	return Config{BlockSize: blockSize, NumBlocks: n, BytesPerToken: bytesPerToken}
}

// sequence is a live allocation.
type sequence struct {
	blocks []int // indices into the block pool
	length int   // tokens stored
	freed  bool  // set on Free so stale Handles fail instead of corrupting
	// gen counts lifetimes of this (pooled, reusable) shell; a Handle
	// carries the gen it was issued under, so handles from a previous
	// lifetime are rejected even after the shell is recycled.
	gen int
	// chain is the prefix chain PrefixIndex.Acquire matched for this
	// sequence, and chainSym0 the first element of the syms it matched
	// over; Release reuses the chain instead of re-hashing those blocks.
	chain     []prefixLink
	chainSym0 *uint64
}

// Cache is a paged KV cache. It is not safe for concurrent use; the
// engine serializes access.
//
// Block storage is watermark-allocated: len(refcount) is the number of
// blocks ever grabbed, and blocks past it are untouched capacity that
// costs no memory until used. Construction is therefore O(1) and a
// cache's footprint scales with its peak occupancy, not its configured
// capacity — a fleet can provision replicas with multi-GB KV budgets
// without materializing multi-MB bookkeeping per engine. Grab order is
// identical to the historical fully-materialized free list (recycled
// blocks LIFO first, then fresh indices ascending), so block-index
// sequences — and everything downstream that depends on them — are
// byte-for-byte unchanged.
type Cache struct {
	cfg      Config
	refcount []int // per grabbed block; 0 = free; len is the watermark
	free     []int // recycled blocks below the watermark (LIFO)
	seqs     map[string]*sequence
	// pool recycles freed sequence shells (and their block-table
	// capacity) so steady-state admit/free churn is allocation-free.
	pool []*sequence
	// tableCap is the largest block-table reservation seen; new tables
	// are sized to it so recycled shells fit any typical sequence.
	tableCap int
	// peakUsed tracks the high-water mark of allocated blocks.
	peakUsed int
	// shared counts blocks with refcount > 1, maintained incrementally at
	// every 1<->2 refcount transition so Stats never scans the pool.
	shared int
	// indexRefs, when non-nil, counts per-block references held by an
	// attached PrefixIndex (retained prefixes with no owning sequence),
	// so CheckInvariants can reconcile refcounts that no sequence holds.
	// Like refcount it is watermark-sized, growing on first touch.
	indexRefs []int
}

// New builds an empty cache in O(1): no per-block state is materialized
// until blocks are actually grabbed.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Cache{cfg: cfg, seqs: make(map[string]*sequence)}, nil
}

// blocksFor returns the block count holding n tokens.
func (c *Cache) blocksFor(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + c.cfg.BlockSize - 1) / c.cfg.BlockSize
}

// grab pops one free block, or fails: recycled blocks LIFO first, then a
// fresh index from under the watermark — the same order the historical
// materialized free list produced.
func (c *Cache) grab() (int, error) {
	var b int
	switch {
	case len(c.free) > 0:
		b = c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
		c.refcount[b] = 1
	case len(c.refcount) < c.cfg.NumBlocks:
		b = len(c.refcount)
		if c.refcount == nil {
			// Seed the watermark array at a 64-block floor so the early
			// growth doublings (1, 2, 4, ...) never happen; past the floor
			// append's geometric growth takes over.
			c.refcount = make([]int, 0, min(64, c.cfg.NumBlocks))
		}
		c.refcount = append(c.refcount, 1)
	default:
		return 0, ErrOutOfBlocks
	}
	if used := c.cfg.NumBlocks - c.FreeBlocks(); used > c.peakUsed {
		c.peakUsed = used
	}
	return b, nil
}

// retain adds one reference to an already-allocated block (fork-style
// sharing: Fork children and retained prefix index entries both go
// through here so the shared-block counter stays exact).
func (c *Cache) retain(b int) {
	if c.refcount[b] <= 0 {
		panic(fmt.Sprintf("kvcache: retain of free block %d", b))
	}
	c.refcount[b]++
	if c.refcount[b] == 2 {
		c.shared++
	}
}

// release decrements a block's refcount, returning it to the free list at
// zero.
func (c *Cache) release(b int) {
	if c.refcount[b] <= 0 {
		panic(fmt.Sprintf("kvcache: release of free block %d", b))
	}
	if c.refcount[b] == 2 {
		c.shared--
	}
	c.refcount[b]--
	if c.refcount[b] == 0 {
		if c.free == nil {
			c.free = make([]int, 0, min(64, c.cfg.NumBlocks))
		}
		c.free = append(c.free, b)
	}
}

// Allocate reserves blocks for a new sequence of the given token length.
// On failure nothing is allocated.
func (c *Cache) Allocate(seqID string, tokens int) error {
	return c.AllocateReserve(seqID, tokens, tokens)
}

// AllocateReserve is Allocate with the sequence's final token length
// known up front: blocks are grabbed for tokens only, but the block
// table is sized for reserveTokens so later appends never reallocate it
// — one table allocation per sequence lifetime, as ReserveH promises,
// without a grow-then-copy on admission.
func (c *Cache) AllocateReserve(seqID string, tokens, reserveTokens int) error {
	if _, ok := c.seqs[seqID]; ok {
		return ErrSequenceExists
	}
	need := c.blocksFor(tokens)
	if need > c.FreeBlocks() {
		return ErrOutOfBlocks
	}
	capBlocks := c.blocksFor(reserveTokens)
	if capBlocks < need {
		capBlocks = need
	}
	s := c.newSequence(capBlocks)
	s.length = tokens
	for i := 0; i < need; i++ {
		b, _ := c.grab() // cannot fail: capacity checked above
		s.blocks = append(s.blocks, b)
	}
	c.seqs[seqID] = s
	return nil
}

// newSequence returns an empty sequence shell with room for capBlocks,
// recycled from the free pool when possible.
func (c *Cache) newSequence(capBlocks int) *sequence {
	// Size every block table to the high-water reservation seen so far:
	// once one large sequence has passed through, recycled shells fit all
	// smaller ones and admit/free churn stops reallocating tables whose
	// sizes merely vary request to request.
	if capBlocks < c.tableCap {
		capBlocks = c.tableCap
	} else {
		c.tableCap = capBlocks
	}
	if n := len(c.pool); n > 0 {
		s := c.pool[n-1]
		c.pool[n-1] = nil
		c.pool = c.pool[:n-1]
		s.freed = false
		s.length = 0
		if cap(s.blocks) < capBlocks {
			s.blocks = make([]int, 0, capBlocks)
		}
		return s
	}
	return &sequence{blocks: make([]int, 0, capBlocks)}
}

// AppendToken extends a sequence by one token, allocating a fresh block at
// block boundaries and copying a shared tail block (copy-on-write) before
// writing into it. It is a thin wrapper over the bulk path; callers
// appending many tokens should use AppendTokens (or a Handle) instead of
// paying one map lookup per token.
func (c *Cache) AppendToken(seqID string) error {
	return c.AppendTokens(seqID, 1)
}

// AppendTokens extends a sequence by n tokens in one call: one map
// lookup, one copy-on-write check on the shared tail, and O(new blocks)
// grabs — the engine's decode loop advances whole chunks this way
// instead of once per token. n <= 0 is a no-op.
//
// On ErrOutOfBlocks the sequence keeps the partial progress a token-wise
// loop would have made (the tail and every grabbed block filled), so the
// call remains exactly equivalent to n consecutive AppendToken calls,
// error point included.
func (c *Cache) AppendTokens(seqID string, n int) error {
	s, ok := c.seqs[seqID]
	if !ok {
		return ErrUnknownSequence
	}
	return c.appendTokens(s, n)
}

// appendTokens is the shared bulk core behind AppendToken(s) and
// AppendTokensH.
func (c *Cache) appendTokens(s *sequence, n int) error {
	if n <= 0 {
		return nil
	}
	// Writing into a partial tail block: copy it first if shared. Any
	// block allocated past this point is exclusively owned, so one check
	// covers the whole extension.
	if s.length%c.cfg.BlockSize != 0 {
		tail := s.blocks[len(s.blocks)-1]
		if c.refcount[tail] > 1 {
			nb, err := c.grab()
			if err != nil {
				return err
			}
			c.release(tail)
			s.blocks[len(s.blocks)-1] = nb
		}
	}
	need := c.blocksFor(s.length+n) - len(s.blocks)
	if need > c.FreeBlocks() {
		// Capacity exhausted mid-extension: mirror the token-wise loop's
		// partial progress — fill the current tail, then grab blocks until
		// the free list runs dry — and fail at the same point it would.
		got := c.FreeBlocks()
		fit := (len(s.blocks)+got)*c.cfg.BlockSize - s.length
		for i := 0; i < got; i++ {
			b, _ := c.grab()
			s.blocks = append(s.blocks, b)
		}
		s.length += fit
		return ErrOutOfBlocks
	}
	for i := 0; i < need; i++ {
		b, _ := c.grab() // cannot fail: capacity checked above
		s.blocks = append(s.blocks, b)
	}
	s.length += n
	return nil
}

// Handle is a resolved reference to a live sequence: the engine looks a
// sequence up once per lifetime and then appends and frees through the
// handle without further map traffic. A Handle is invalidated by Free or
// FreeH; using it afterwards returns ErrUnknownSequence. Handles are only
// valid on the cache that issued them.
type Handle struct {
	c   *Cache
	s   *sequence
	id  string
	gen int
}

// ID returns the sequence ID the handle resolves.
func (h Handle) ID() string { return h.id }

// Lookup resolves a sequence ID to a Handle for the map-free fast path.
//
//edgereasoning:hotpath bench=BenchmarkKVAppend
func (c *Cache) Lookup(seqID string) (Handle, error) {
	s, ok := c.seqs[seqID]
	if !ok {
		return Handle{}, ErrUnknownSequence
	}
	return Handle{c: c, s: s, id: seqID, gen: s.gen}, nil
}

// valid reports whether h is a live handle issued by this cache for the
// current lifetime of its sequence shell.
//
//edgereasoning:hotpath bench=BenchmarkKVAppend
func (c *Cache) valid(h Handle) bool {
	return h.c == c && h.s != nil && !h.s.freed && h.s.gen == h.gen
}

// ReserveH grows the handle's block-table capacity to cover a final
// length of `tokens`, so a sequence whose total (prompt + output) is
// known at admission pays at most one table allocation for its whole
// lifetime. Only table capacity is reserved — no cache blocks are taken.
//
//edgereasoning:hotpath bench=BenchmarkKVAppend
func (c *Cache) ReserveH(h Handle, tokens int) error {
	if !c.valid(h) {
		return ErrUnknownSequence
	}
	if need := c.blocksFor(tokens); cap(h.s.blocks) < need {
		nb := make([]int, len(h.s.blocks), need) //edgereasoning:allow hotpath -- at most one table growth per sequence lifetime
		copy(nb, h.s.blocks)
		h.s.blocks = nb
	}
	return nil
}

// AppendTokensH is AppendTokens through a resolved Handle: zero map
// lookups on the decode hot path.
//
//edgereasoning:hotpath bench=BenchmarkKVAppend
func (c *Cache) AppendTokensH(h Handle, n int) error {
	if !c.valid(h) {
		return ErrUnknownSequence
	}
	return c.appendTokens(h.s, n)
}

// LengthH returns the handle's token count.
//
//edgereasoning:hotpath bench=BenchmarkKVAppend
func (c *Cache) LengthH(h Handle) (int, error) {
	if !c.valid(h) {
		return 0, ErrUnknownSequence
	}
	return h.s.length, nil
}

// FreeH releases the handle's sequence and invalidates the handle.
//
//edgereasoning:hotpath bench=BenchmarkKVAppend
func (c *Cache) FreeH(h Handle) error {
	if !c.valid(h) {
		return ErrUnknownSequence
	}
	c.freeSeq(h.id, h.s)
	return nil
}

// Fork creates childID sharing all of parentID's blocks copy-on-write.
// This is how parallel test-time scaling reuses one prefill across SF
// decoders at near-zero memory cost.
func (c *Cache) Fork(parentID, childID string) error {
	p, ok := c.seqs[parentID]
	if !ok {
		return ErrUnknownSequence
	}
	if _, ok := c.seqs[childID]; ok {
		return ErrSequenceExists
	}
	child := c.newSequence(len(p.blocks))
	child.length = p.length
	child.blocks = append(child.blocks, p.blocks...)
	for _, b := range p.blocks {
		c.retain(b)
	}
	c.seqs[childID] = child
	return nil
}

// Free releases a sequence's blocks.
func (c *Cache) Free(seqID string) error {
	s, ok := c.seqs[seqID]
	if !ok {
		return ErrUnknownSequence
	}
	c.freeSeq(seqID, s)
	return nil
}

// freeSeq releases the blocks, invalidates outstanding handles, and
// recycles the shell.
func (c *Cache) freeSeq(seqID string, s *sequence) {
	for _, b := range s.blocks {
		c.release(b)
	}
	s.freed = true
	s.gen++
	s.blocks = s.blocks[:0]
	// A pooled shell pins no prefix entry and no syms.
	clear(s.chain)
	s.chain, s.chainSym0 = s.chain[:0], nil
	delete(c.seqs, seqID)
	if c.pool == nil {
		// The pool peaks at the max live sequence count (~the batch size);
		// a 16-shell floor skips the early append-growth doublings.
		c.pool = make([]*sequence, 0, 16)
	}
	c.pool = append(c.pool, s)
}

// Length returns a sequence's token count.
func (c *Cache) Length(seqID string) (int, error) {
	s, ok := c.seqs[seqID]
	if !ok {
		return 0, ErrUnknownSequence
	}
	return s.length, nil
}

// Stats summarizes occupancy.
type Stats struct {
	TotalBlocks  int
	FreeBlocks   int
	UsedBlocks   int
	PeakUsed     int
	Sequences    int
	UsedBytes    int64
	TotalBytes   int64
	SharedBlocks int // blocks with refcount > 1
}

// FreeBlocks returns the available capacity in O(1): recycled blocks on
// the free list plus the untouched region past the watermark. Stats()
// reports the same number but the engine's per-admission capacity check
// comes through here.
func (c *Cache) FreeBlocks() int {
	return c.cfg.NumBlocks - len(c.refcount) + len(c.free)
}

// indexRef adjusts the prefix-index reference count for block b, growing
// the watermark-sized counter array on first touch.
func (c *Cache) indexRef(b, delta int) {
	for len(c.indexRefs) <= b {
		c.indexRefs = append(c.indexRefs, 0)
	}
	c.indexRefs[b] += delta
}

// PeakUsed returns the allocation high-water mark in O(1).
func (c *Cache) PeakUsed() int { return c.peakUsed }

// UsedBlocks returns current occupancy in O(1) — the telemetry layer
// samples it as a gauge on every serve event, so it must not pay
// Stats()'s struct assembly.
func (c *Cache) UsedBlocks() int { return c.cfg.NumBlocks - c.FreeBlocks() }

// Stats returns current occupancy. SharedBlocks reads the incrementally
// maintained counter, so the call is O(1); sharedScan is the O(n) audit
// kept as a test-only cross-check (CheckInvariants compares the two).
func (c *Cache) Stats() Stats {
	free := c.FreeBlocks()
	used := c.cfg.NumBlocks - free
	blockBytes := int64(c.cfg.BlockSize) * c.cfg.BytesPerToken
	return Stats{
		TotalBlocks:  c.cfg.NumBlocks,
		FreeBlocks:   free,
		UsedBlocks:   used,
		PeakUsed:     c.peakUsed,
		Sequences:    len(c.seqs),
		UsedBytes:    int64(used) * blockBytes,
		TotalBytes:   int64(c.cfg.NumBlocks) * blockBytes,
		SharedBlocks: c.shared,
	}
}

// sharedScan recounts shared blocks the slow way. It exists only to
// cross-check the incremental counter in CheckInvariants.
func (c *Cache) sharedScan() int {
	n := 0
	for _, r := range c.refcount {
		if r > 1 {
			n++
		}
	}
	return n
}

// CheckInvariants verifies internal consistency: every block is either on
// the free list with refcount 0 or referenced by exactly refcount holders
// (sequences plus any attached prefix index), per-sequence block counts
// match lengths, and the O(1) shared-block counter agrees with a full
// scan. Used by property tests.
func (c *Cache) CheckInvariants() error {
	// Only the watermark region has live state; blocks past it were never
	// grabbed and can hold no references.
	refs := make([]int, len(c.refcount))
	for id, s := range c.seqs {
		if got, want := len(s.blocks), c.blocksFor(s.length); got != want {
			return fmt.Errorf("kvcache: seq %s holds %d blocks for %d tokens (want %d)", id, got, s.length, want)
		}
		for _, b := range s.blocks {
			if b >= len(refs) {
				return fmt.Errorf("kvcache: seq %s holds block %d past watermark %d", id, b, len(refs))
			}
			refs[b]++
		}
	}
	if c.indexRefs != nil {
		for b, n := range c.indexRefs {
			if n < 0 {
				return fmt.Errorf("kvcache: block %d has negative index refcount %d", b, n)
			}
			if n > 0 && b >= len(refs) {
				return fmt.Errorf("kvcache: index holds block %d past watermark %d", b, len(refs))
			}
			if b < len(refs) {
				refs[b] += n
			}
		}
	}
	onFree := make(map[int]bool, len(c.free))
	for _, b := range c.free {
		if onFree[b] {
			return fmt.Errorf("kvcache: block %d appears twice on the free list", b)
		}
		onFree[b] = true
	}
	for b := range c.refcount {
		if refs[b] != c.refcount[b] {
			return fmt.Errorf("kvcache: block %d refcount %d, %d references found", b, c.refcount[b], refs[b])
		}
		if (c.refcount[b] == 0) != onFree[b] {
			return fmt.Errorf("kvcache: block %d free-list membership inconsistent with refcount %d", b, c.refcount[b])
		}
	}
	if scan := c.sharedScan(); scan != c.shared {
		return fmt.Errorf("kvcache: shared counter %d disagrees with scan %d", c.shared, scan)
	}
	return nil
}
