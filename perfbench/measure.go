package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"sort"
	"syscall"
	"time"

	"edgereasoning/internal/control"
	"edgereasoning/internal/data"
	"edgereasoning/internal/llm"
	"edgereasoning/internal/model"
)

// setupsPerRep is how many times each repetition sets its workload up; the
// op runs on the last. Set-up takes microseconds to milliseconds, so one
// per repetition is too few samples on paper-full, whose three or four
// repetitions are seconds apart: the set-ups are spread across the run
// with the ops.
const setupsPerRep = 100

// sample is one measured repetition.
type sample struct {
	wall, cpu     time.Duration
	allocs, bytes uint64
	heapPeak      uint64
	out           outcome
	// layer holds the traced repetition's per-layer values.
	layer map[string]float64
	trace *tracer
}

// measurement is everything one benchmark run observed.
type measurement struct {
	untraced, traced []sample
	setups           []time.Duration
	faultsGenerate   []time.Duration
	profile          cpuSamples
	gcCPU, busyCPU   float64 // runtime/metrics CPU classes over traced ops
	llmNsPerBranch   float64
	// wrong is the first output check that failed, "" when all passed.
	wrong string
}

// wrongOutput marks an op whose simulated results failed a check, as
// opposed to a call that returned an error.
type wrongOutput struct{ msg string }

func (e wrongOutput) Error() string { return e.msg }

func wrongf(format string, args ...any) error { return wrongOutput{fmt.Sprintf(format, args...)} }

// bench runs workload w for budget. A traced run spends half the budget
// untraced and half traced, so it can report the tracing overhead.
func bench(w *workloadSpec, seed uint64, budget time.Duration, traced, mini bool) (*measurement, error) {
	m := &measurement{}
	var err error
	if !traced {
		m.untraced, err = m.loop(w, seed, budget, false, mini)
		if err != nil {
			return nil, err
		}
	} else {
		if m.untraced, err = m.loop(w, seed, budget/2, false, mini); err != nil {
			return nil, err
		}
		if m.traced, err = m.loop(w, seed, budget/2, true, mini); err != nil {
			return nil, err
		}
		if w.name == "paper-full" {
			if m.llmNsPerBranch, err = llmProbe(seed, pick(mini, 100, 4)); err != nil {
				return nil, err
			}
		}
	}
	// Every repetition simulates the same inputs, traced or not, so their
	// results must be identical.
	want := m.digest()
	for _, s := range m.all() {
		if !s.out.opFailed && s.out.digest != want && m.wrong == "" {
			m.wrong = fmt.Sprintf("%s: repetition digests differ: %x vs %x", w.name, s.out.digest, want)
		}
	}
	return m, nil
}

// setup prepares one repetition and records its time.
//
//edgereasoning:wallclock -- the benchmark measures host time around its calls into the simulator
func (m *measurement) setup(w *workloadSpec, seed uint64, mini bool) (*rep, error) {
	start := time.Now()
	r, err := w.prepare(seed, mini)
	elapsed := time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	m.setups = append(m.setups, elapsed)
	m.faultsGenerate = append(m.faultsGenerate, r.faultsGenerate)
	return r, nil
}

// loop repeats set-up and op until budget has passed, at least once. A
// call that returns an error is counted and the loop goes on; only a
// set-up failure or a profiler failure ends it.
//
//edgereasoning:wallclock -- the benchmark measures host time around its calls into the simulator
func (m *measurement) loop(w *workloadSpec, seed uint64, budget time.Duration, traced, mini bool) ([]sample, error) {
	var out []sample
	start := time.Now()
	for len(out) == 0 || time.Since(start) < budget {
		// Set-ups start on a collected heap, as the op does.
		runtime.GC()
		var r *rep
		for i := 0; i < setupsPerRep; i++ {
			var err error
			if r, err = m.setup(w, seed, mini); err != nil {
				return nil, err
			}
		}
		s, err := m.measureOp(r, traced)
		var wrong wrongOutput
		switch {
		case errors.As(err, &wrong):
			if m.wrong == "" {
				m.wrong = fmt.Sprintf("%s: %v", w.name, err)
			}
		case err != nil && !s.out.opFailed:
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// counterNames are the runtime CPU classes runtime.gc_cpu_share is
// computed from: GC time over non-idle time.
var counterNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

// measureOp runs one prepared op and takes its host-side measurements:
// wall and process CPU time, heap allocations, and the peak heap. A traced
// op also runs under the CPU profiler and records spans.
//
//edgereasoning:wallclock -- the benchmark measures host time around its calls into the simulator
func (m *measurement) measureOp(r *rep, traced bool) (sample, error) {
	var s sample
	var profile bytes.Buffer
	cpuClasses := make([]metrics.Sample, len(counterNames))
	for i, n := range counterNames {
		cpuClasses[i].Name = n
	}
	runtime.GC()
	if traced {
		s.trace = newTracer()
		if err := pprof.StartCPUProfile(&profile); err != nil {
			return s, fmt.Errorf("cpu profile: %w", err)
		}
		metrics.Read(cpuClasses)
	}
	peak := startHeapPeak()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := processCPU()
	start := time.Now()
	root := s.trace.begin("op")
	out, err := r.run(s.trace)
	s.trace.end(root)
	s.wall = time.Since(start)
	s.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&after)
	s.heapPeak = peak.finish()
	s.allocs = after.Mallocs - before.Mallocs
	s.bytes = after.TotalAlloc - before.TotalAlloc
	s.out = out
	if traced {
		gc0, total0, idle0 := cpuClasses[0].Value.Float64(), cpuClasses[1].Value.Float64(), cpuClasses[2].Value.Float64()
		metrics.Read(cpuClasses)
		m.gcCPU += cpuClasses[0].Value.Float64() - gc0
		m.busyCPU += (cpuClasses[1].Value.Float64() - total0) - (cpuClasses[2].Value.Float64() - idle0)
		pprof.StopCPUProfile()
		if perr := m.profile.addProfile(profile.Bytes()); perr != nil {
			return s, perr
		}
		s.layer = tracedLayer(s.trace, out)
	}
	// Later repetitions must not find this one's results on the heap.
	s.out.latencies = nil
	return s, err
}

// tracedLayer derives one traced op's per-layer values from its spans.
func tracedLayer(tr *tracer, out outcome) map[string]float64 {
	l := map[string]float64{}
	perCall := func(calls int, total time.Duration) float64 {
		if calls == 0 {
			return 0
		}
		return float64(total.Nanoseconds()) / float64(calls)
	}
	share := func(part, whole time.Duration) float64 {
		if whole <= 0 {
			return 0
		}
		return part.Seconds() / whole.Seconds()
	}
	wCalls, wTotal := tr.sourceTotals("workload.Source.Next")
	sCalls, sTotal := tr.sourceTotals("session.Source.Next")
	engineSpan, fleetSpan := tr.last("engine.ServeSource"), tr.last("fleet.ServeSource")
	serve := engineSpan + fleetSpan
	l["workload.ns_per_request"] = perCall(wCalls, wTotal)
	l["workload.share"] = share(wTotal, serve)
	l["session.ns_per_request"] = perCall(sCalls, sTotal)
	l["session.share"] = share(sTotal, serve)
	if engineSpan > 0 && out.events > 0 {
		l["engine.self_ns_per_event"] = float64((engineSpan - wTotal - sTotal).Nanoseconds()) / float64(out.events)
	}
	if fleetSpan > 0 && out.ops > 0 {
		l["fleet.self_ns_per_request"] = float64((fleetSpan - wTotal - sTotal).Nanoseconds()) / float64(out.ops)
	}
	l["stats.percentiles_s"] = percentilesProbe(out.latencies).Seconds()
	return l
}

// heapPeak samples the heap's in-use object bytes on a 1 ms ticker until
// finish, keeping the largest reading. With one processor the sampler
// runs when the op yields or is preempted, so readings come at least
// every 10 ms or so.
type heapPeak struct {
	stop, done chan struct{}
	peak       uint64
}

//edgereasoning:wallclock -- the benchmark measures host time around its calls into the simulator
func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	h.peak = s[0].Value.Uint64()
	tick := time.NewTicker(time.Millisecond)
	go func() {
		defer close(h.done)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for it, and returns the peak.
func (h *heapPeak) finish() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// processCPU is the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// llmProbe times Twin.GenerateVotes on fig9's shapes — the MMLU-Redux
// bank, hard limits of 128 and 512 tokens, one and 32 votes, for each
// fig9 model — over the first n questions, and returns nanoseconds per
// sampled branch.
//
//edgereasoning:wallclock -- the benchmark measures host time around its calls into the simulator
func llmProbe(seed uint64, n int) (float64, error) {
	bank, err := data.Load(data.MMLURedux, seed)
	if err != nil {
		return 0, err
	}
	if n > len(bank.Questions) {
		n = len(bank.Questions)
	}
	models := []model.ID{model.DSR1Qwen1_5B, model.DSR1Llama8B, model.DSR1Qwen14B, model.L1Max}
	branches := 0
	start := time.Now()
	for _, id := range models {
		tw := llm.NewTwin(model.MustLookup(id), bank, seed)
		for _, budget := range []int{128, 512} {
			pol := control.HardLimit(budget)
			for _, k := range []int{1, 32} {
				for _, q := range bank.Questions[:n] {
					if _, err := tw.GenerateVotes(q, pol, k); err != nil {
						return 0, err
					}
					branches += k
				}
			}
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(branches), nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// medianOf is the median of f over samples.
func medianOf(samples []sample, f func(sample) float64) float64 {
	return median(valuesOf(samples, f))
}

// minimum is the smallest of xs. Host times are reported as the fastest
// of a run's many short repetitions: on a small share of a busy host,
// neighbours slow this branchy, cache-hungry code by up to 1.7x in bursts
// of seconds, which move a run's median by up to a third; interference only
// ever adds time, so the fastest repetition is the program's own cost.
func minimum(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Min(xs)
}

// minOf is the minimum of f over samples.
func minOf(samples []sample, f func(sample) float64) float64 {
	return minimum(valuesOf(samples, f))
}

func valuesOf(samples []sample, f func(sample) float64) []float64 {
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = f(s)
	}
	return xs
}

func seconds(ds []time.Duration) []float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return xs
}
