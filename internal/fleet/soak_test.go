package fleet

import (
	"testing"

	"edgereasoning/internal/faults"
	"edgereasoning/internal/workload"
)

// TestSoakStreamConservation streams a large open-loop workload through
// the fleet ingress — generated lazily, never materialized — and checks
// the conservation invariant end to end: every request that entered the
// ingress is accounted for as served or dropped, at a scale the unit
// tests never reach (run under -race in CI, the soak-smoke step). The
// deadline slack plus shed
// admission keeps both sides of the ledger non-trivial: an overloaded
// pool must actually drop work for the invariant to mean anything.
func TestSoakStreamConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("1e5-request soak; skipped in -short")
	}
	const requests = 100_000
	// 4 QPS across two small replicas is a sustained overload; the tight
	// slack makes shed admission exercise the Dropped path.
	profile := workload.InteractiveAssistant(4, requests)
	profile.DeadlineSlack = 2
	profile.DeadlineSlackMax = 6
	src, err := workload.NewSource(profile, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := homogeneousFleet(2, LeastQueue)
	cfg.Admission = Shed
	m, err := ServeSource(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	if m.Offered != requests {
		t.Fatalf("Offered = %d, want %d (stream truncated?)", m.Offered, requests)
	}
	if m.Served+m.Dropped != m.Offered {
		t.Fatalf("conservation violated: Served %d + Dropped %d != Offered %d",
			m.Served, m.Dropped, m.Offered)
	}
	if m.Served == 0 || m.Dropped == 0 {
		t.Fatalf("degenerate soak: Served %d, Dropped %d — want both paths exercised", m.Served, m.Dropped)
	}
}

// TestSoakFaultedConservation is the chaos variant of the soak: the
// same scale of lazily-streamed traffic, but with a generated fault
// schedule (crashes, stalls, throttles) plus retry and health-aware
// routing active the whole run. Run under -race in CI. Conservation
// must hold exactly through every abort/retry cycle — a request lost
// between a crash and its re-admission is precisely the bug class this
// soak exists to catch.
func TestSoakFaultedConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("1e5-request soak; skipped in -short")
	}
	const requests = 100_000
	profile := workload.InteractiveAssistant(4, requests)
	profile.DeadlineSlack = 2
	profile.DeadlineSlackMax = 6
	src, err := workload.NewSource(profile, 7)
	if err != nil {
		t.Fatal(err)
	}
	// The stream runs ~25000s; faults over the first 20000s, roughly a
	// crash per replica per ~17 min plus regular stalls and throttles.
	sched, err := faults.Generate(faults.GenConfig{
		Replicas: 3, Horizon: 20_000,
		CrashRate: 20, RestartDelay: 10,
		StallRate: 40, StallDuration: 3,
		ThrottleRate: 20, ThrottleDuration: 30, ThrottleFactor: 2,
	}, 11)
	if err != nil {
		t.Fatal(err)
	}
	cfg := homogeneousFleet(3, LeastQueue)
	cfg.Admission = Shed
	cfg.Faults = &sched
	cfg.Retry = &RetryPolicy{}
	cfg.Health = &HealthConfig{}
	m, err := ServeSource(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	if m.Offered != requests {
		t.Fatalf("Offered = %d, want %d (stream truncated?)", m.Offered, requests)
	}
	if m.Served+m.Dropped != m.Offered {
		t.Fatalf("conservation violated: Served %d + Dropped %d != Offered %d",
			m.Served, m.Dropped, m.Offered)
	}
	if m.Crashes == 0 || m.Aborted == 0 || m.Retried == 0 {
		t.Fatalf("degenerate chaos soak: %d crashes, %d aborted, %d retried", m.Crashes, m.Aborted, m.Retried)
	}
	if m.Retried+m.AbortedDropped < m.Aborted {
		t.Fatalf("abort accounting leaked: %d aborted, %d retried + %d dropped",
			m.Aborted, m.Retried, m.AbortedDropped)
	}
	if m.Shed+m.AbortedDropped > m.Dropped {
		t.Fatalf("drop ledger overlaps: shed %d + aborted %d > dropped %d", m.Shed, m.AbortedDropped, m.Dropped)
	}
}
