package kvcache

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
)

// refIndex is the prefix index as it was before walks kept links:
// verbatim copies of the old walk, Probe, Acquire and Release, which
// re-walk from block 0 after any index change and re-hash the whole
// history on Release. It runs on a twin cache; everything else
// (EnsureFree, CrashReset, touch, promote, the LRU lists) is the shared
// code of the embedded index, so a lockstep run isolates the walk and
// the Release chain.
type refIndex struct {
	*PrefixIndex
	match    []*prefixEntry
	memoSym0 *uint64
	memoLen  int
	memoMut  uint64
}

func (ix *refIndex) walk(syms []uint64) []*prefixEntry {
	if len(syms) > 0 && ix.memoSym0 == &syms[0] && ix.memoLen == len(syms) && ix.memoMut == ix.mut {
		return ix.match
	}
	ix.match = ix.match[:0]
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
		ix.touch(e)
		ix.match = append(ix.match, e)
	}
	if len(syms) > 0 {
		ix.memoSym0, ix.memoLen, ix.memoMut = &syms[0], len(syms), ix.mut
	}
	return ix.match
}

func (ix *refIndex) Probe(syms []uint64) int {
	chain := ix.walk(syms)
	for i, e := range chain {
		if e.onHost {
			return i
		}
	}
	return len(chain)
}

func (ix *refIndex) Acquire(seqID string, syms []uint64) (int, error) {
	if _, ok := ix.c.seqs[seqID]; ok {
		return 0, ErrSequenceExists
	}
	ix.m.Lookups++
	chain := ix.walk(syms)
	promoted := 0
	for i, e := range chain {
		if !e.onHost {
			continue
		}
		if !ix.promote(e) {
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
	for _, e := range chain {
		ix.c.retain(e.block)
		s.blocks = append(s.blocks, e.block)
	}
	s.length = len(chain) * ix.c.cfg.BlockSize
	ix.c.seqs[seqID] = s
	if s.length > 0 {
		ix.m.Hits++
		ix.m.SavedTokens += s.length
	}
	return s.length, nil
}

func (ix *refIndex) Release(h Handle, promptSyms, outputSyms []uint64) error {
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
	hh := prefixSeed
	var parent *prefixEntry
	for k := 0; k < full; k++ {
		for i := k * bs; i < (k+1)*bs; i++ {
			if i < len(promptSyms) {
				hh = prefixMix(hh, promptSyms[i])
			} else {
				hh = prefixMix(hh, outputSyms[i-len(promptSyms)])
			}
		}
		e := ix.entries[hh]
		if e == nil {
			if parent != nil && parent.onHost {
				break
			}
			ix.tick++
			e = ix.newEntry()
			*e = prefixEntry{hash: hh, block: s.blocks[k], parent: parent, lastUse: ix.tick}
			ix.c.retain(e.block)
			ix.c.indexRef(e.block, 1)
			ix.entries[hh] = e
			ix.mut++
			if parent != nil {
				parent.children++
				ix.lru.remove(parent)
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

// lockstepConfig sizes one lockstep run; hostBlocks 0 runs without a
// host tier.
type lockstepConfig struct {
	blockSize, numBlocks, hostBlocks int
}

// lockSeq is a live sequence of a lockstep run: its ID and the prompt
// slice it was acquired with (Release passes the same slice, as the
// engine does).
type lockSeq struct {
	id     string
	prompt []uint64
}

// lockstep drives the index and the reference twin through one op
// stream and compares them after every step.
type lockstep struct {
	t     testing.TB
	pick  func(n int) int // next choice in [0, n)
	c, rc *Cache
	ix    *PrefixIndex
	rx    *refIndex

	histories [][]uint64 // finished histories; never mutated once stored
	live      []lockSeq
	cand      []uint64 // the last probed prompt, re-probed and acquired as is
	nextSym   uint64
	nextID    int
	// log records every returned value, so two runs of one op stream
	// can be compared.
	log []int
	// unsorted is set once both sides have shown the known device-LRU
	// order fault (see compare).
	unsorted bool
}

func newLockstep(t testing.TB, cfg lockstepConfig, pick func(n int) int) *lockstep {
	t.Helper()
	kc := Config{BlockSize: cfg.blockSize, NumBlocks: cfg.numBlocks, BytesPerToken: 256}
	c, err := New(kc)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := New(kc)
	if err != nil {
		t.Fatal(err)
	}
	ix, twin := NewPrefixIndex(c), NewPrefixIndex(rc)
	if cfg.hostBlocks > 0 {
		for _, x := range []*PrefixIndex{ix, twin} {
			if err := x.AttachHostTier(HostTierConfig{Blocks: cfg.hostBlocks}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return &lockstep{t: t, pick: pick, c: c, rc: rc, ix: ix, rx: &refIndex{PrefixIndex: twin}, nextSym: 1}
}

func (l *lockstep) fresh(n int) []uint64 {
	out := syms(l.nextSym, n)
	l.nextSym += uint64(n)
	return out
}

// prompt picks the next candidate prompt: a stored history as is (the
// same slice, so the walk memo applies), a history extended by fresh
// tokens, a live sequence's prompt, or fresh content.
func (l *lockstep) prompt() []uint64 {
	bs := l.c.cfg.BlockSize
	switch k := l.pick(8); {
	case k < 3 && len(l.histories) > 0:
		return l.histories[l.pick(len(l.histories))]
	case k < 6 && len(l.histories) > 0:
		base := l.histories[l.pick(len(l.histories))]
		return append(append([]uint64{}, base...), l.fresh(1+l.pick(2*bs))...)
	case k < 7 && len(l.live) > 0:
		return l.live[l.pick(len(l.live))].prompt
	default:
		return l.fresh(1 + l.pick(4*bs))
	}
}

// step runs one op on both indexes and compares them.
func (l *lockstep) step() {
	t := l.t
	t.Helper()
	var op string
	switch k := l.pick(24); {
	case k < 5: // probe a new candidate
		l.cand = l.prompt()
		op = fmt.Sprintf("probe %d syms", len(l.cand))
		l.same(op, l.ix.Probe(l.cand), l.rx.Probe(l.cand))
	case k < 9: // re-probe the candidate, as a blocked head is re-probed
		if l.cand == nil {
			return
		}
		op = fmt.Sprintf("re-probe %d syms", len(l.cand))
		l.same(op, l.ix.Probe(l.cand), l.rx.Probe(l.cand))
	case k < 13: // capacity pressure
		n := 1 + l.pick(l.c.cfg.NumBlocks)
		op = fmt.Sprintf("ensure-free %d", n)
		l.ix.EnsureFree(n)
		l.rx.EnsureFree(n)
	case k < 17: // admit the candidate: acquire, then prefill the rest
		if l.cand == nil {
			return
		}
		id := fmt.Sprintf("q%d", l.nextID)
		l.nextID++
		op = fmt.Sprintf("acquire %s (%d syms)", id, len(l.cand))
		m, err := l.ix.Acquire(id, l.cand)
		rm, rerr := l.rx.Acquire(id, l.cand)
		l.same(op, m, rm)
		l.sameErr(op, err, rerr)
		if err != nil {
			break
		}
		if l.appendBoth(id, len(l.cand)-m) {
			l.live = append(l.live, lockSeq{id: id, prompt: l.cand})
		}
	case k < 19: // decode: append output tokens to a live sequence
		if len(l.live) == 0 {
			return
		}
		j := l.pick(len(l.live))
		n := l.pick(3 * l.c.cfg.BlockSize)
		op = fmt.Sprintf("append %s %d", l.live[j].id, n)
		if !l.appendBoth(l.live[j].id, n) {
			l.live = append(l.live[:j], l.live[j+1:]...)
		}
	case k < 22: // finish: release with retention
		if len(l.live) == 0 {
			return
		}
		j := l.pick(len(l.live))
		s := l.live[j]
		l.live = append(l.live[:j], l.live[j+1:]...)
		out := l.fresh(l.pick(3 * l.c.cfg.BlockSize))
		prompt := s.prompt
		switch l.pick(8) {
		case 0:
			// The same content in another slice: Release must not trust
			// the acquired chain for it, and indexes the same entries.
			prompt = append([]uint64{}, prompt...)
		case 1:
			// Other content than was acquired: Release indexes what it
			// is told the blocks hold, not the acquired chain.
			prompt = l.fresh(len(prompt))
		}
		op = fmt.Sprintf("release %s (%d+%d syms)", s.id, len(prompt), len(out))
		h, rh := l.handles(s.id)
		l.sameErr(op, l.ix.Release(h, prompt, out), l.rx.Release(rh, prompt, out))
		l.histories = append(l.histories, append(append([]uint64{}, s.prompt...), out...))
		if len(l.histories) > 16 {
			l.histories = l.histories[1:]
		}
	case k < 23: // abandon a live sequence without retention
		if len(l.live) == 0 {
			return
		}
		j := l.pick(len(l.live))
		id := l.live[j].id
		l.live = append(l.live[:j], l.live[j+1:]...)
		op = "free " + id
		l.sameErr(op, l.c.Free(id), l.rc.Free(id))
	default: // device crash; live sequences stay and release later
		keep := l.pick(2) == 1
		op = fmt.Sprintf("crash-reset keepHost=%v", keep)
		l.ix.CrashReset(keep)
		l.rx.CrashReset(keep)
	}
	l.compare(op)
}

// appendBoth appends n tokens to id on both caches; on running out of
// blocks the sequence is abandoned on both, and appendBoth reports false.
func (l *lockstep) appendBoth(id string, n int) bool {
	h, rh := l.handles(id)
	err, rerr := l.c.AppendTokensH(h, n), l.rc.AppendTokensH(rh, n)
	l.sameErr("append "+id, err, rerr)
	if err == nil {
		return true
	}
	l.sameErr("free "+id, l.c.Free(id), l.rc.Free(id))
	return false
}

func (l *lockstep) handles(id string) (Handle, Handle) {
	h, err := l.c.Lookup(id)
	if err != nil {
		l.t.Fatalf("lookup %s: %v", id, err)
	}
	rh, err := l.rc.Lookup(id)
	if err != nil {
		l.t.Fatalf("reference lookup %s: %v", id, err)
	}
	return h, rh
}

func (l *lockstep) same(op string, got, want int) {
	l.t.Helper()
	l.log = append(l.log, got)
	if got != want {
		l.t.Fatalf("%s: index returned %d, reference %d", op, got, want)
	}
}

func (l *lockstep) sameErr(op string, got, want error) {
	l.t.Helper()
	if got != want {
		l.t.Fatalf("%s: index error %v, reference %v", op, got, want)
	}
}

// compare checks the two sides agree on everything observable: the
// metrics and clocks, every entry's fields and parent, both LRU orders,
// the caches' sequences, refcounts and free lists, and the invariants.
func (l *lockstep) compare(op string) {
	t := l.t
	t.Helper()
	ix, rx := l.ix, l.rx.PrefixIndex
	if ix.m != rx.m {
		t.Fatalf("%s: metrics %+v, reference %+v", op, ix.m, rx.m)
	}
	if ix.tick != rx.tick || ix.mut != rx.mut {
		t.Fatalf("%s: tick/mut %d/%d, reference %d/%d", op, ix.tick, ix.mut, rx.tick, rx.mut)
	}
	if len(ix.entries) != len(rx.entries) {
		t.Fatalf("%s: %d entries, reference %d", op, len(ix.entries), len(rx.entries))
	}
	for hh, e := range ix.entries {
		if got, want := entryState(e), entryState(rx.entries[hh]); got != want {
			t.Fatalf("%s: entry %#x is %+v, reference %+v", op, hh, got, want)
		}
	}
	if got, want := lruOrder(ix.lru), lruOrder(rx.lru); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: device LRU %x, reference %x", op, got, want)
	}
	if ix.host != nil {
		if got, want := lruOrder(ix.host.lru), lruOrder(rx.host.lru); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: host LRU %x, reference %x", op, got, want)
		}
	}
	if got, want := snapshot(l.c), snapshot(l.rc); got != want {
		t.Fatalf("%s: cache state\n%s\nreference\n%s", op, got, want)
	}
	err, rerr := ix.CheckInvariants(), rx.CheckInvariants()
	if fmt.Sprint(err) != fmt.Sprint(rerr) {
		t.Fatalf("%s: invariants: %v, reference: %v", op, err, rerr)
	}
	if err != nil && !strings.Contains(err.Error(), "device LRU out of order") {
		t.Fatalf("%s: %v", op, err)
	}
	if err != nil && !l.unsorted {
		// Known, shared by both sides and kept for now: promote pushes a
		// promoted leaf at the device LRU's MRU end on the assumption
		// that the walk just touched it, but an Acquire that reuses a
		// walk memo runs after any touch-only Release since, whose ticks
		// are newer. Only that error is let through, and only when the
		// reference reports it identically.
		t.Logf("%s: both sides: %v", op, err)
		l.unsorted = true
	}
}

// entryView holds the fields of an entry both sides must agree on.
type entryView struct {
	hash, parent               uint64 // parent 0 at a chain root
	block, children, hostChild int
	lastUse                    uint64
	onHost, inLRU, missing     bool
}

func entryState(e *prefixEntry) entryView {
	if e == nil {
		return entryView{missing: true}
	}
	v := entryView{hash: e.hash, block: e.block, children: e.children, hostChild: e.hostChildren,
		lastUse: e.lastUse, onHost: e.onHost, inLRU: e.inLRU}
	if e.parent != nil {
		v.parent = e.parent.hash
	}
	return v
}

func lruOrder(l lruList) []uint64 {
	var out []uint64
	for e := l.head; e != nil; e = e.next {
		out = append(out, e.hash)
	}
	return out
}

// state renders the final state of a run, for re-run comparisons.
func (l *lockstep) state() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%+v tick %d\n%v\n%s", l.ix.m, l.ix.tick, l.log, snapshot(l.c))
	fmt.Fprintf(&b, "lru %x\n", lruOrder(l.ix.lru))
	if l.ix.host != nil {
		fmt.Fprintf(&b, "host %x\n", lruOrder(l.ix.host.lru))
	}
	return b.String()
}

// TestPrefixIndexMatchesReference drives the linked walk and the
// chain-reusing Release in lockstep with the re-hashing reference over
// random Probe / EnsureFree / re-Probe / Acquire / append / Release /
// Free / CrashReset runs on shared-prefix histories, with and without a
// host tier, and compares the two after every op: return values,
// metrics, every entry, both LRU orders, the caches and the invariants.
func TestPrefixIndexMatchesReference(t *testing.T) {
	for _, cfg := range []lockstepConfig{
		{blockSize: 4, numBlocks: 24},
		{blockSize: 4, numBlocks: 24, hostBlocks: 6},
		{blockSize: 2, numBlocks: 40, hostBlocks: 3},
		{blockSize: 3, numBlocks: 16, hostBlocks: 5},
	} {
		for seed := uint64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("bs%d_blocks%d_host%d_seed%d", cfg.blockSize, cfg.numBlocks, cfg.hostBlocks, seed), func(t *testing.T) {
				r := rand.New(rand.NewPCG(seed, 23))
				l := newLockstep(t, cfg, r.IntN)
				for i := 0; i < 600; i++ {
					l.step()
				}
				m := l.ix.Metrics()
				if m.Hits == 0 || m.Evictions == 0 || m.CrashWipes == 0 {
					t.Fatalf("run never exercised the index: %+v", m)
				}
				if cfg.hostBlocks > 0 && (m.Promotions == 0 || m.Demotions == 0) {
					t.Fatalf("run never cycled the host tier: %+v", m)
				}
			})
		}
	}
}

// FuzzPrefixIndex drives the lockstep harness from fuzz bytes: the
// first three pick the block size, the cache size and the host tier (or
// none), and each later byte one choice of the op stream. Oracles: no
// panic, agreement with the reference after every op, the invariants,
// and an identical re-run.
func FuzzPrefixIndex(f *testing.F) {
	f.Add([]byte{3, 20, 6, 0, 1, 2, 9, 4, 3, 7, 11, 15, 16, 1, 5, 8, 0, 10, 12, 17, 19, 4, 13, 2})
	f.Add([]byte{1, 8, 0, 0, 0, 5, 10, 11, 1, 15, 3, 6, 9, 12, 18, 19, 1, 4, 7})
	f.Add([]byte{2, 33, 3, 10, 2, 0, 0, 15, 16, 7, 9, 9, 9, 3, 5, 19, 0, 11, 12, 16, 6, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		cfg := lockstepConfig{
			blockSize:  1 + int(data[0]%4),
			numBlocks:  4 + int(data[1]%48),
			hostBlocks: int(data[2] % 12),
		}
		run := func() string {
			ops := data[3:]
			pick := func(n int) int {
				if len(ops) == 0 {
					return 0
				}
				b := int(ops[0])
				ops = ops[1:]
				return b % n
			}
			l := newLockstep(t, cfg, pick)
			for steps := 0; len(ops) > 0 && steps < 1024; steps++ {
				l.step()
			}
			return l.state()
		}
		if a, b := run(), run(); a != b {
			t.Fatalf("re-run diverged:\n%s\nvs\n%s", a, b)
		}
	})
}
