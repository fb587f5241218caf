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

	ix.CrashReset()
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

// TestCrashResetWithoutKeepHostClearsBothTiers models a cold restart
// on a tiered index: host DRAM does not persist, so nothing survives,
// neither a device chain nor one fully demoted to host.
func TestCrashResetWithoutKeepHostClearsBothTiers(t *testing.T) {
	c, ix := newTieredCache(t, 4, 8, 8, 0)
	promptA := syms(100, 8)
	promptB := syms(2000, 8)
	runTurn(t, c, ix, "a0", promptA, nil)
	ix.EnsureFree(8) // chain A fully on host
	runTurn(t, c, ix, "b0", promptB, nil)

	ix.CrashReset()
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
