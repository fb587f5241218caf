package fleet

import (
	"testing"

	"edgereasoning/internal/session"
)

func TestSessionAffinityParses(t *testing.T) {
	for _, s := range []string{"session-affinity", "session", "sa"} {
		p, err := ParsePolicy(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		if p != SessionAffinity {
			t.Errorf("ParsePolicy(%q) = %v", s, p)
		}
	}
	if got, err := ParsePolicy(SessionAffinity.String()); err != nil || got != SessionAffinity {
		t.Errorf("String round-trip failed: %v, %v", got, err)
	}
	// The sweep list stays session-agnostic: affinity needs tagged
	// streams, which the fleet driver's workload does not carry.
	for _, p := range Policies() {
		if p == SessionAffinity {
			t.Error("Policies() must not include SessionAffinity")
		}
	}
}

func TestSessionAffinityPinsTurnsAndLiftsHitRate(t *testing.T) {
	reqs, err := session.Generate(session.AgentLoop(6, 3, 1), 7)
	if err != nil {
		t.Fatal(err)
	}
	run := func(p Policy) Metrics {
		cfg := homogeneousFleet(3, p)
		cfg.PrefixCache = true
		m, err := Serve(cfg, reqs)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	aff := run(SessionAffinity)
	rr := run(RoundRobin)

	if aff.Served != len(reqs) || rr.Served != len(reqs) {
		t.Fatalf("served %d/%d of %d", aff.Served, rr.Served, len(reqs))
	}
	if aff.PrefixLookups != len(reqs) {
		t.Fatalf("prefix lookups %d, want %d", aff.PrefixLookups, len(reqs))
	}
	// Pinning a session to the replica holding its history must beat
	// scattering its turns across the fleet.
	if aff.PrefixHitRate() <= rr.PrefixHitRate() {
		t.Errorf("affinity hit rate %.2f not above round-robin %.2f",
			aff.PrefixHitRate(), rr.PrefixHitRate())
	}
	if aff.SavedPrefillTokens <= rr.SavedPrefillTokens {
		t.Errorf("affinity saved %d tokens, round-robin %d",
			aff.SavedPrefillTokens, rr.SavedPrefillTokens)
	}
}

func TestSessionAffinityFallsBackWhenPinnedReplicaFails(t *testing.T) {
	reqs, err := session.Generate(session.AgentLoop(2, 4, 1), 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := homogeneousFleet(2, SessionAffinity)
	cfg.PrefixCache = true
	// Kill replica 0 partway through: pinned sessions must re-pin to the
	// survivor, and retry must re-serve what the crash aborted, instead
	// of dropping.
	permanentCrash(&cfg, 0, reqs[len(reqs)/2].Arrival)
	cfg.Retry = &RetryPolicy{}
	m, err := Serve(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Dropped != 0 {
		t.Fatalf("dropped %d requests despite a live replica", m.Dropped)
	}
	if m.Served != len(reqs) {
		t.Fatalf("served %d of %d", m.Served, len(reqs))
	}
}

func TestSessionAffinityOnSessionlessStreamActsLikeLeastQueue(t *testing.T) {
	reqs := burst(24, 0.5, 0)
	aff, err := Serve(homogeneousFleet(3, SessionAffinity), reqs)
	if err != nil {
		t.Fatal(err)
	}
	lq, err := Serve(homogeneousFleet(3, LeastQueue), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range aff.Replicas {
		if aff.Replicas[i].Served != lq.Replicas[i].Served {
			t.Fatalf("sessionless affinity diverged from least-queue: %v vs %v",
				assignments(aff), assignments(lq))
		}
	}
}

func assignments(m Metrics) []int {
	out := make([]int, len(m.Replicas))
	for i, r := range m.Replicas {
		out[i] = r.Served
	}
	return out
}
