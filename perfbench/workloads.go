package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"edgereasoning/internal/data"
	"edgereasoning/internal/engine"
	"edgereasoning/internal/experiments"
	"edgereasoning/internal/faults"
	"edgereasoning/internal/fleet"
	"edgereasoning/internal/hw"
	"edgereasoning/internal/model"
	"edgereasoning/internal/session"
	"edgereasoning/internal/stats"
	"edgereasoning/internal/workload"
)

// A workloadSpec is one set of inputs the benchmark runs. Each repetition
// calls prepare (timed as set-up) and then runs the returned op once
// (timed as the repetition's wall time). Every workload is an offline
// batch: open-loop arrivals run on the simulated clock, not the host's.
// The serving workloads' streams are sized for an op of under 0.1 s, so a
// run holds a few hundred repetitions and its fastest one finds a moment
// when the host's neighbours are quiet.
type workloadSpec struct {
	name string
	// why is the reason the workload was chosen; BENCHMARK.json carries
	// the same sentence.
	why string
	// opUnit names what one op is: the unit allocs_per_op and the
	// attempted count are taken in.
	opUnit string
	// layers are the repository packages the workload drives.
	layers []string
	// prepare builds one repetition; mini selects the miniature size the
	// benchmark's own test runs.
	prepare func(seed uint64, mini bool) (*rep, error)
}

// rep is one prepared repetition. run executes the op, recording spans
// into tr when tracing is on (tr is nil otherwise).
type rep struct {
	run func(tr *tracer) (outcome, error)
	// faultsGenerate is the part of set-up spent in faults.Generate.
	faultsGenerate time.Duration
}

// outcome is what one repetition produced. digest identifies its
// simulated results; counts are the program's own per-layer counters.
type outcome struct {
	ops int // offered requests, or suite runs
	// opFailed marks an op whose call returned an error, so it produced
	// no results to check.
	opFailed bool
	// calls counts calls into the program (experiment drivers, or serve
	// calls); failedCalls those that returned an error. A driver error is
	// an outcome of the suite run, not a failure of the op.
	calls, failedCalls int
	events             int // clock-advancing simulation events
	digest             [32]byte
	counts             map[string]float64
	// latencies feeds the stats.Percentiles3 timing probe.
	latencies []float64
}

const (
	defaultSeed = 7
	// heldOutSeed is kept out of tuning; claims are confirmed on it.
	heldOutSeed = 11
)

func workloads() []*workloadSpec {
	return []*workloadSpec{
		{
			name:    "paper-full",
			why:     "edgereasoning all at full size on one worker; op = one suite run; ~90% of host time is the llm censored-lognormal sampler under fig9 and table12",
			opUnit:  "suite run",
			layers:  []string{"experiments", "llm", "tts", "data"},
			prepare: preparePaperFull,
		},
		{
			name:    "engine-soak",
			why:     "open-loop stream through one engine; op = one request; engine scheduler, gpusim, kvcache blocks, workload generation and stats, no prefix cache, fleet or llm",
			opUnit:  "offered request",
			layers:  []string{"workload", "engine", "gpusim", "kvcache", "power", "stats"},
			prepare: prepareEngineSoak,
		},
		{
			name:    "fleet-chaos",
			why:     "overloaded 3-replica fleet with shed admission, generated faults, retry and health; op = one request; fleet dispatch, admission and recovery, O(stream) memory",
			opUnit:  "offered request",
			layers:  []string{"workload", "faults", "fleet", "engine", "gpusim", "kvcache"},
			prepare: prepareFleetChaos,
		},
		{
			name:    "agent-sessions",
			why:     "agentic sessions on a 2-replica affinity fleet with a starved prefix cache and host tier; op = one request; kvcache prefix index, demote/promote, session history",
			opUnit:  "offered request",
			layers:  []string{"session", "fleet", "kvcache", "engine", "gpusim"},
			prepare: prepareAgentSessions,
		},
	}
}

func lookupWorkload(name string) (*workloadSpec, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// driverGroups are the drivers whose wall time is reported on its own;
// every other driver folds into "other".
var driverGroups = []string{"fig9", "table12", "naturalplan", "verify", "breakdown"}

// preparePaperFull synthesizes the seed's benchmark banks (the inputs the
// suite's drivers are computed from) and returns one full-size suite run:
// every registered driver on one worker, each table rendered as the
// command line would print it. A driver error is a counted outcome of the
// suite, not a failure of the run.
func preparePaperFull(seed uint64, mini bool) (*rep, error) {
	for _, b := range data.All() {
		if _, err := data.Load(b, seed); err != nil {
			return nil, err
		}
	}
	ids := experiments.IDs()
	opts := experiments.Options{Seed: seed, Quick: mini}
	return &rep{run: func(tr *tracer) (outcome, error) {
		out := outcome{ops: 1, counts: map[string]float64{}}
		span := tr.begin("experiments.RunAll")
		results := experiments.RunAll(context.Background(), ids, opts, experiments.RunnerOptions{Parallelism: 1})
		tr.end(span)
		render := tr.begin("experiments.Render")
		var report bytes.Buffer
		anchorsFailed := 0
		for _, r := range results {
			out.calls++
			out.counts["experiments.driver_s."+driverGroup(r.ID)] += r.Wall.Seconds()
			if r.Err != nil {
				out.failedCalls++
				fmt.Fprintf(&report, "error %s: %v\n", r.ID, r.Err)
				continue
			}
			for ti := range r.Tables {
				if err := r.Tables[ti].Render(&report); err != nil {
					return out, fmt.Errorf("render %s: %w", r.Tables[ti].ID, err)
				}
				if r.Tables[ti].ID == "verify" {
					anchorsFailed += failedAnchors(&r.Tables[ti])
				}
			}
		}
		out.counts["experiments.render_s"] = tr.end(render).Seconds()
		out.counts["experiments.anchors_failed"] = float64(anchorsFailed)
		out.counts["experiments.drivers_failed"] = float64(out.failedCalls)
		out.digest = sha256.Sum256(report.Bytes())
		return out, nil
	}}, nil
}

func driverGroup(id string) string {
	for _, g := range driverGroups {
		if g == id {
			return g
		}
	}
	return "other"
}

// failedAnchors counts scorecard rows whose status is not "ok".
func failedAnchors(t *experiments.Table) int {
	col := -1
	for i, c := range t.Columns {
		if c == "status" {
			col = i
		}
	}
	n := 0
	for _, row := range t.Rows {
		if col < 0 || col >= len(row) || row[col] != "ok" {
			n++
		}
	}
	return n
}

// prepareEngineSoak is the soak subcommand at benchmark size: the
// interactive-assistant stream at 0.8 QPS (below the single-engine knee)
// through one Qwen2.5-1.5B engine, batch 8, FCFS, lean metrics.
func prepareEngineSoak(seed uint64, mini bool) (*rep, error) {
	size := pick(mini, 50_000, 2_000)
	src, err := workload.NewSource(workload.InteractiveAssistant(0.8, size), seed)
	if err != nil {
		return nil, err
	}
	eng, err := engine.New(engine.Config{Spec: model.MustLookup(model.Qwen25_1_5Bit), Device: hw.JetsonAGXOrin64GB()})
	if err != nil {
		return nil, err
	}
	return &rep{run: func(tr *tracer) (outcome, error) {
		out := outcome{ops: size, calls: 1}
		source := tr.source("workload.Source.Next", src)
		span := tr.begin("engine.ServeSource")
		m, err := eng.ServeSource(source, 8, engine.FCFS, engine.ServeOpts{LeanMetrics: true})
		tr.end(span)
		if err != nil {
			out.opFailed, out.failedCalls = true, 1
			return out, err
		}
		if m.Served != size {
			return out, wrongf("engine-soak: served %d of %d requests", m.Served, size)
		}
		out.events = m.Events
		out.latencies = m.Latencies
		out.counts = map[string]float64{
			"engine.events": float64(m.Events),
			"engine.served": float64(m.Served),
		}
		out.digest = digestOf(m.Served, m.Events, m.DeadlinesMet,
			m.P50Latency, m.P95Latency, m.P99Latency, m.MeanLatency, eng.Clock())
		return out, nil
	}}, nil
}

// prepareFleetChaos is the faulted fleet soak: 4 QPS with 2–6 s deadline
// slack is a sustained overload for three replicas, so shed admission
// drops work while crashes, stalls and throttles strike throughout and
// retry plus health-aware routing recover what they can. The fault
// horizon and rates scale with the stream so every size sees the same
// fault density as the conservation soak test.
//
//edgereasoning:wallclock -- the benchmark measures host time around its calls into the simulator
func prepareFleetChaos(seed uint64, mini bool) (*rep, error) {
	size := pick(mini, 20_000, 2_000)
	profile := workload.InteractiveAssistant(4, size)
	profile.DeadlineSlack = 2
	profile.DeadlineSlackMax = 6
	src, err := workload.NewSource(profile, seed)
	if err != nil {
		return nil, err
	}
	// 1e5 requests at 4 QPS span ~25000 s; faults cover the first 80%.
	scale := float64(size) / 100_000
	start := time.Now()
	sched, err := faults.Generate(faults.GenConfig{
		Replicas: 3, Horizon: 20_000 * scale,
		CrashRate: 20 * scale, RestartDelay: 10,
		StallRate: 40 * scale, StallDuration: 3,
		ThrottleRate: 20 * scale, ThrottleDuration: 30, ThrottleFactor: 2,
	}, seed)
	if err != nil {
		return nil, err
	}
	generate := time.Since(start)
	spec := model.MustLookup(model.Qwen25_1_5Bit)
	cfg := fleet.Config{
		Replicas: []fleet.ReplicaConfig{
			{Spec: spec, Device: hw.JetsonAGXOrin64GB()},
			{Spec: spec, Device: hw.JetsonAGXOrin64GB()},
			{Spec: spec, Device: hw.JetsonAGXOrin64GB()},
		},
		Policy:    fleet.LeastQueue,
		Admission: fleet.Shed,
		Faults:    &sched,
		Retry:     &fleet.RetryPolicy{},
		Health:    &fleet.HealthConfig{},
	}
	return &rep{
		run: func(tr *tracer) (outcome, error) {
			return serveFleet(tr, cfg, src, "workload.Source.Next", size)
		},
		faultsGenerate: generate,
	}, nil
}

// prepareAgentSessions serves agent-loop sessions on two session-affinity
// replicas whose device prefix cache is starved (384 blocks still holds
// the largest request; 192 does not) above a host-DRAM tier, so prefix
// entries are demoted and promoted continuously. Sessions start at a
// tenth of the AgentLoop rate, which keeps the pool below its knee: the
// tail latency stays flat as sessions are added, where the AgentLoop rate
// builds a backlog without bound.
func prepareAgentSessions(seed uint64, mini bool) (*rep, error) {
	profile := session.AgentLoop(pick(mini, 400, 20), 4, 2)
	profile.StartRate /= 10
	// Each turn sends a think and an act request; every other turn sends a
	// second think sample.
	offered := profile.Sessions * (2*profile.Turns + (profile.Branch-1)*(profile.Turns/profile.BranchEvery))
	src, err := session.NewSource(profile, seed)
	if err != nil {
		return nil, err
	}
	spec := model.MustLookup(model.DSR1Qwen1_5B)
	cfg := fleet.Config{
		Replicas: []fleet.ReplicaConfig{
			{Spec: spec, Device: hw.JetsonAGXOrin64GB()},
			{Spec: spec, Device: hw.JetsonAGXOrin64GB()},
		},
		Policy:         fleet.SessionAffinity,
		PrefixCache:    true,
		DeviceBlocks:   384,
		HostTierBlocks: 1024,
	}
	return &rep{run: func(tr *tracer) (outcome, error) {
		return serveFleet(tr, cfg, src, "session.Source.Next", offered)
	}}, nil
}

// serveFleet runs one fleet.ServeSource call and checks request
// conservation and the abort ledger.
func serveFleet(tr *tracer, cfg fleet.Config, src engine.Source, sourceSpan string, offered int) (outcome, error) {
	out := outcome{ops: offered, calls: 1}
	source := tr.source(sourceSpan, src)
	span := tr.begin("fleet.ServeSource")
	m, err := fleet.ServeSource(cfg, source)
	tr.end(span)
	if err != nil {
		out.opFailed, out.failedCalls = true, 1
		return out, err
	}
	switch {
	case m.Offered != offered:
		return out, wrongf("fleet offered %d requests, want %d", m.Offered, offered)
	case m.Served+m.Dropped != m.Offered:
		return out, wrongf("conservation violated: served %d + dropped %d != offered %d", m.Served, m.Dropped, m.Offered)
	case m.Retried+m.AbortedDropped < m.Aborted:
		return out, wrongf("abort ledger leaked: %d aborted, %d retried + %d dropped", m.Aborted, m.Retried, m.AbortedDropped)
	case m.Shed+m.AbortedDropped > m.Dropped:
		return out, wrongf("drop ledger overlaps: shed %d + aborted %d > dropped %d", m.Shed, m.AbortedDropped, m.Dropped)
	}
	out.events = m.Events
	for _, r := range m.Replicas {
		out.latencies = append(out.latencies, r.Latencies...)
	}
	out.counts = map[string]float64{
		"engine.events":           float64(m.Events),
		"engine.served":           float64(m.Served),
		"fleet.offered":           float64(m.Offered),
		"fleet.served":            float64(m.Served),
		"fleet.dropped":           float64(m.Dropped),
		"fleet.shed":              float64(m.Shed),
		"fleet.crashes":           float64(m.Crashes),
		"fleet.aborted":           float64(m.Aborted),
		"fleet.retried":           float64(m.Retried),
		"fleet.served_frac":       float64(m.Served) / float64(m.Offered),
		"kvcache.prefix_lookups":  float64(m.PrefixLookups),
		"kvcache.prefix_hit_rate": m.PrefixHitRate(),
		"kvcache.demotions":       float64(m.TierDemotions),
		"kvcache.promotions":      float64(m.TierPromotions),
		"kvcache.host_hits":       float64(m.HostHits),
	}
	out.digest = digestOf(m.Offered, m.Served, m.Dropped, m.Shed, m.Events,
		m.DeadlinesMet, m.Crashes, m.Aborted, m.Retried, m.AbortedDropped,
		m.PrefixLookups, m.PrefixHits, m.SavedPrefillTokens,
		m.TierDemotions, m.TierPromotions, m.HostHits,
		m.P50Latency, m.P95Latency, m.P99Latency, m.MeanLatency, m.RestoreSeconds)
	return out, nil
}

// pick returns the full-size value, or the miniature one for tests.
func pick(mini bool, full, miniature int) int {
	if mini {
		return miniature
	}
	return full
}

// digestOf hashes ints and the exact bits of floats, in order.
func digestOf(vals ...any) [32]byte {
	h := sha256.New()
	var buf [8]byte
	for _, v := range vals {
		switch x := v.(type) {
		case int:
			binary.LittleEndian.PutUint64(buf[:], uint64(x))
		case float64:
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		default:
			panic(fmt.Sprintf("digestOf: unsupported %T", v))
		}
		h.Write(buf[:])
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

// percentilesProbe times stats.Percentiles3 on a run's latencies, the
// sort every serve call ends with.
//
//edgereasoning:wallclock -- the benchmark measures host time around its calls into the simulator
func percentilesProbe(latencies []float64) time.Duration {
	if len(latencies) == 0 {
		return 0
	}
	start := time.Now()
	stats.Percentiles3(latencies)
	return time.Since(start)
}
