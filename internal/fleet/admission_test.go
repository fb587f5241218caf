package fleet

import (
	"testing"

	"edgereasoning/internal/engine"
	"edgereasoning/internal/label"
	"edgereasoning/internal/workload"
)

func TestAdmissionParseRoundTrip(t *testing.T) {
	for _, a := range Admissions() {
		got, err := ParseAdmission(a.String())
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if got != a {
			t.Errorf("ParseAdmission(%q) = %v", a.String(), got)
		}
	}
	if _, err := ParseAdmission("lifo"); err == nil {
		t.Error("unknown admission discipline must be rejected")
	}
}

func TestAdmissionLocalDiscipline(t *testing.T) {
	if EDF.localDiscipline(RoundRobin) != engine.EDF {
		t.Error("EDF ingress must schedule EDF locally")
	}
	if FIFO.localDiscipline(DeadlineAware) != engine.EDF {
		t.Error("FIFO ingress must defer to the policy's local discipline")
	}
	if Shed.localDiscipline(RoundRobin) != engine.FCFS {
		t.Error("shed ingress with a blind policy must stay FCFS locally")
	}
}

func TestIngressPickOrder(t *testing.T) {
	reqs := []engine.TimedRequest{
		{Request: engine.Request{ID: label.Question(0), PromptTokens: 300}, Arrival: 0},
		{Request: engine.Request{ID: label.Question(1), PromptTokens: 50}, Arrival: 1, Deadline: 90},
		{Request: engine.Request{ID: label.Question(2), PromptTokens: 50}, Arrival: 2, Deadline: 40},
		{Request: engine.Request{ID: label.Question(3), PromptTokens: 120}, Arrival: 3},
	}
	fill := func(d Admission) *ingress {
		q := newIngress(d)
		for _, tr := range reqs {
			q.Push(entry{TimedRequest: tr, since: tr.Arrival})
		}
		return q
	}
	if q := fill(FIFO); q.Live()[q.pick()].ID != label.Question(0) {
		t.Error("FIFO must pick the earliest arrival")
	}
	if q := fill(EDF); q.Live()[q.pick()].ID != label.Question(2) {
		t.Error("EDF must pick the earliest deadline")
	}
	// Deadline-less requests go last under EDF.
	q := fill(EDF)
	q.take(q.pick()) // c
	if got := q.Live()[q.pick()].ID; got != label.Question(1) {
		t.Errorf("EDF picked %q after c, want b (deadline-less last)", got)
	}
	if q := fill(SJF); q.Live()[q.pick()].ID != label.Question(1) {
		t.Error("SJF must pick the shortest prompt (earliest arrival on ties)")
	}
	// Shed dispatches FIFO order; dropLate purges only expired deadlines.
	q = fill(Shed)
	var dropped []label.Label
	q.dropLate(50, func(tr engine.TimedRequest) { dropped = append(dropped, tr.ID) })
	if len(dropped) != 1 || dropped[0] != label.Question(2) {
		t.Errorf("dropLate(50) removed %v, want [c]", dropped)
	}
	if q.Len() != 3 || q.Live()[q.pick()].ID != label.Question(0) {
		t.Errorf("shed queue after purge: len %d, head %q", q.Len(), q.Live()[q.pick()].ID)
	}
}

// blockedStream is one long deadline-less request that hogs the sole
// replica, with two short requests queued behind it at the ingress.
func blockedStream(second, third engine.TimedRequest) []engine.TimedRequest {
	long := timed(label.Question(0), 0, 512, 200, 0)
	return []engine.TimedRequest{long, second, third}
}

// completionOrder runs a capacity-1 single replica so dispatch order is
// completion order, and returns the request IDs in that order.
func completionOrder(t *testing.T, admission Admission, reqs []engine.TimedRequest) []label.Label {
	t.Helper()
	cfg := homogeneousFleet(1, RoundRobin)
	cfg.Replicas[0].capacity = 1
	cfg.Admission = admission
	cfg.KeepRequests = true
	m, err := Serve(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	var ids []label.Label
	for _, rm := range m.Replicas {
		for _, r := range rm.Requests {
			ids = append(ids, r.ID)
		}
	}
	return ids
}

func TestEDFAdmissionReordersBlockedQueue(t *testing.T) {
	loose, tight := label.Question(1), label.Question(2)
	reqs := blockedStream(
		timed(loose, 0.1, 64, 20, 200),
		timed(tight, 0.2, 64, 20, 60),
	)
	fifo := completionOrder(t, FIFO, reqs)
	edf := completionOrder(t, EDF, reqs)
	if fifo[1] != loose || fifo[2] != tight {
		t.Errorf("FIFO order %v, want arrival order", fifo)
	}
	if edf[1] != tight || edf[2] != loose {
		t.Errorf("EDF order %v, want the tight deadline overtaking", edf)
	}
}

func TestSJFAdmissionReordersBlockedQueue(t *testing.T) {
	big, small := label.Question(1), label.Question(2)
	reqs := blockedStream(
		timed(big, 0.1, 400, 20, 0),
		timed(small, 0.2, 32, 20, 0),
	)
	fifo := completionOrder(t, FIFO, reqs)
	sjf := completionOrder(t, SJF, reqs)
	if fifo[1] != big || fifo[2] != small {
		t.Errorf("FIFO order %v, want arrival order", fifo)
	}
	if sjf[1] != small || sjf[2] != big {
		t.Errorf("SJF order %v, want the short prompt overtaking", sjf)
	}
}

// overloadedStream offers far more deadline-bearing work than one
// replica can serve in time.
func overloadedStream(t *testing.T) []engine.TimedRequest {
	t.Helper()
	profile := workload.InteractiveAssistant(4, 60)
	profile.DeadlineSlack = 2
	profile.DeadlineSlackMax = 6
	reqs, err := workload.Generate(profile, 11)
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

func TestShedBeatsBlockingFIFOUnderOverload(t *testing.T) {
	reqs := overloadedStream(t)
	run := func(a Admission) Metrics {
		cfg := homogeneousFleet(1, RoundRobin)
		cfg.Admission = a
		m, err := Serve(cfg, reqs)
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if m.Served+m.Dropped != len(reqs) {
			t.Fatalf("%s: served %d + dropped %d != offered %d", a, m.Served, m.Dropped, len(reqs))
		}
		return m
	}
	fifo := run(FIFO)
	shed := run(Shed)
	if fifo.Dropped != 0 || fifo.Shed != 0 {
		t.Errorf("blocking FIFO must not drop: dropped %d shed %d", fifo.Dropped, fifo.Shed)
	}
	if shed.Shed == 0 || shed.Shed != shed.Dropped {
		t.Errorf("shed admission under overload: shed %d dropped %d, want equal and positive", shed.Shed, shed.Dropped)
	}
	if shed.HitRate() <= fifo.HitRate() {
		t.Errorf("shedding hit rate %.3f must beat blocking FIFO %.3f under overload",
			shed.HitRate(), fifo.HitRate())
	}
	if fifo.HitRate() >= 1 {
		t.Error("overload too mild: FIFO already meets every deadline, comparison is vacuous")
	}
}

// TestShedConsultsFastestReplica pins the certain-miss bound to the
// best available replica: a deadline only a fast replica can meet must
// not be shed just because a slow replica was also a candidate.
func TestShedConsultsFastestReplica(t *testing.T) {
	fast, _ := DeviceByName("orin")
	slow, _ := DeviceByName("orin-15w")
	cfg := Config{
		Replicas: []ReplicaConfig{
			{Spec: smallSpec(), Device: slow},
			{Spec: smallSpec(), Device: fast},
		},
		// Round-robin would offer the slow replica first; shedding must
		// still judge feasibility against the fast one.
		Policy:    RoundRobin,
		Admission: Shed,
	}
	probe, err := Serve(Config{Replicas: cfg.Replicas[1:], Policy: RoundRobin}, burst(1, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	fastService := probe.MeanLatency
	slowProbe, err := Serve(Config{Replicas: cfg.Replicas[:1], Policy: RoundRobin}, burst(1, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if slowProbe.MeanLatency <= 2*fastService {
		t.Skipf("devices not separated enough for the test: fast %.3f slow %.3f", fastService, slowProbe.MeanLatency)
	}
	// A deadline between the fast and slow service times: feasible on
	// the fast replica only.
	deadline := 1.5 * fastService
	reqs := []engine.TimedRequest{timed(label.Question(0), 0, 64, 40, deadline)}
	m, err := Serve(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Shed != 0 {
		t.Errorf("request feasible on the fast replica was shed (fast %.3fs, slow %.3fs, deadline %.3fs)",
			fastService, slowProbe.MeanLatency, deadline)
	}
}

func TestShedNeverDropsDeadlinelessWork(t *testing.T) {
	cfg := homogeneousFleet(1, RoundRobin)
	cfg.Admission = Shed
	m, err := Serve(cfg, burst(20, 0.05, 0)) // overload, but no deadlines
	if err != nil {
		t.Fatal(err)
	}
	if m.Dropped != 0 || m.Shed != 0 || m.Served != 20 {
		t.Errorf("deadline-less stream: served %d dropped %d shed %d, want 20/0/0", m.Served, m.Dropped, m.Shed)
	}
}

func TestNonFIFOAdmissionKeepsConservation(t *testing.T) {
	reqs := overloadedStream(t)
	for _, a := range Admissions() {
		cfg := homogeneousFleet(2, LeastQueue)
		cfg.Admission = a
		m, err := Serve(cfg, reqs)
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if m.Served+m.Dropped != len(reqs) {
			t.Errorf("%s: served %d + dropped %d != offered %d", a, m.Served, m.Dropped, len(reqs))
		}
		if m.DeadlinesTotal != len(reqs) {
			t.Errorf("%s: deadline accounting %d, want every request counted", a, m.DeadlinesTotal)
		}
	}
}
