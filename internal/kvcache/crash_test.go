package kvcache

import "testing"

// TestCrashResetWipesUntieredIndex pins the basic crash contract on a
// device-only index: every retained entry is dropped, the blocks return
// to the free pool, and the index keeps working afterwards.
func TestCrashResetWipesUntieredIndex(t *testing.T) {
	c, ix := newPrefixCache(t, 4, 16)
	prompt := syms(100, 8)
	runTurn(t, c, ix, "a0", prompt, nil)
	if m := ix.Metrics(); m.Retained != 2 {
		t.Fatalf("retained %d before crash, want 2", m.Retained)
	}
	free := c.FreeBlocks()

	ix.CrashReset(true) // keepHost is moot with no tier attached
	m := ix.Metrics()
	if m.CrashWipes != 1 || m.CrashDropped != 2 {
		t.Fatalf("wipes %d dropped %d, want 1/2", m.CrashWipes, m.CrashDropped)
	}
	if m.Retained != 0 {
		t.Fatalf("retained %d after crash, want 0", m.Retained)
	}
	if got := c.FreeBlocks(); got != free+2 {
		t.Fatalf("free %d after crash, want %d (index refs released)", got, free+2)
	}
	if got := ix.Probe(probeSyms(prompt)); got != 0 {
		t.Fatalf("probe matched %d blocks after wipe, want 0", got)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// The wiped index must serve the same traffic again from cold.
	if matched := runTurn(t, c, ix, "a1", probeSyms(prompt), nil); matched != 0 {
		t.Fatalf("post-crash acquire matched %d tokens, want 0 (cold)", matched)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashResetKeepHostSurvivesAllHostChains pins the survival rule on
// a tiered index: a chain fully demoted to host DRAM survives a
// keepHost crash, and remains promotable afterwards.
func TestCrashResetKeepHostSurvivesAllHostChains(t *testing.T) {
	c, ix := newTieredCache(t, 4, 8, 8, 0)
	prompt := syms(100, 8)
	runTurn(t, c, ix, "a0", prompt, nil)
	ix.EnsureFree(8) // demote the whole chain to host
	if m := ix.Metrics(); m.HostRetained != 2 || m.Retained != 0 {
		t.Fatalf("host %d device %d before crash, want 2/0", m.HostRetained, m.Retained)
	}

	ix.CrashReset(true)
	m := ix.Metrics()
	if m.CrashDropped != 0 || m.HostRetained != 2 {
		t.Fatalf("dropped %d host %d, want 0/2 (all-host chain survives)", m.CrashDropped, m.HostRetained)
	}
	if dev, host := ix.Peek(probeSyms(prompt)); dev != 0 || host != 2 {
		t.Fatalf("peek = (%d, %d) after keepHost crash, want (0, 2)", dev, host)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// The surviving history promotes back on the next matching turn.
	h, matched := ix.Acquire(probeSyms(prompt), 0)
	if matched != 8 {
		t.Fatalf("post-crash acquire matched %d tokens, want 8 (host restore)", matched)
	}
	if m := ix.Metrics(); m.Promotions != 2 || m.HostHits != 1 {
		t.Fatalf("promotions %d hostHits %d, want 2/1", m.Promotions, m.HostHits)
	}
	if err := ix.Release(h, probeSyms(prompt), nil); err != nil {
		t.Fatal(err)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashResetOrphansHostTails pins the other half of the survival
// rule: a host tail whose upper chain still lived on the device is
// unreachable after the wipe (its chained hashes start from a destroyed
// root) and must be dropped with it, even under keepHost.
func TestCrashResetOrphansHostTails(t *testing.T) {
	c, ix := newTieredCache(t, 4, 8, 8, 0)
	prompt := syms(100, 16) // 4 blocks
	runTurn(t, c, ix, "a0", prompt, nil)
	ix.EnsureFree(6) // demote the two coldest leaves: tail on host, root on device
	m := ix.Metrics()
	if m.Retained != 2 || m.HostRetained != 2 {
		t.Fatalf("device %d host %d after partial demotion, want 2/2", m.Retained, m.HostRetained)
	}

	ix.CrashReset(true)
	m = ix.Metrics()
	if m.Retained != 0 || m.HostRetained != 0 {
		t.Fatalf("device %d host %d after crash, want 0/0 (orphaned tail dropped)", m.Retained, m.HostRetained)
	}
	if m.CrashDropped != 4 {
		t.Fatalf("dropped %d, want 4", m.CrashDropped)
	}
	if dev, host := ix.Peek(probeSyms(prompt)); dev != 0 || host != 0 {
		t.Fatalf("peek = (%d, %d) after crash, want (0, 0)", dev, host)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashResetWithoutKeepHostClearsBothTiers models a cold restart
// with no persistent DRAM: nothing survives.
func TestCrashResetWithoutKeepHostClearsBothTiers(t *testing.T) {
	c, ix := newTieredCache(t, 4, 8, 8, 0)
	promptA := syms(100, 8)
	promptB := syms(2000, 8)
	runTurn(t, c, ix, "a0", promptA, nil)
	ix.EnsureFree(8) // chain A fully on host
	runTurn(t, c, ix, "b0", promptB, nil)

	ix.CrashReset(false)
	m := ix.Metrics()
	if m.Retained != 0 || m.HostRetained != 0 || m.CrashDropped != 4 {
		t.Fatalf("device %d host %d dropped %d, want 0/0/4", m.Retained, m.HostRetained, m.CrashDropped)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Both tiers are empty; the same sessions rebuild from cold.
	if matched := runTurn(t, c, ix, "a1", probeSyms(promptA), nil); matched != 0 {
		t.Fatalf("post-crash acquire matched %d tokens, want 0", matched)
	}
}

// TestCrashResetSurvivorLRUDeterministic crashes an index holding
// several all-host chains and checks that the rebuilt host LRU keeps
// demotion-recency order: the coldest surviving chain is the next to be
// dropped under host pressure.
func TestCrashResetSurvivorLRUDeterministic(t *testing.T) {
	c, ix := newTieredCache(t, 4, 8, 4, 0)
	promptA := syms(100, 8)  // colder
	promptB := syms(2000, 8) // warmer
	runTurn(t, c, ix, "a0", promptA, nil)
	runTurn(t, c, ix, "b0", promptB, nil)
	ix.EnsureFree(8) // both chains demote; host holds 4 blocks at capacity
	if m := ix.Metrics(); m.HostRetained != 4 {
		t.Fatalf("host %d before crash, want 4", m.HostRetained)
	}

	ix.CrashReset(true)
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// New traffic demoting into the full host tier must push chain A
	// (least recently used) out first, proving the rebuilt LRU order.
	promptC := syms(4000, 8)
	runTurn(t, c, ix, "c0", promptC, nil)
	ix.EnsureFree(8)
	if dev, host := ix.Peek(probeSyms(promptA)); dev != 0 || host != 0 {
		t.Fatalf("cold chain A peek = (%d, %d), want (0, 0): it must be evicted first", dev, host)
	}
	if dev, host := ix.Peek(probeSyms(promptB)); dev+host == 0 {
		t.Fatal("warm chain B must outlive chain A in the rebuilt host LRU")
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
