package engine

import (
	"fmt"
	"math"

	"edgereasoning/internal/kvcache"
	"edgereasoning/internal/queue"
	"edgereasoning/internal/stats"
	"edgereasoning/internal/telemetry"
)

// admitGrain caps a decode chunk, in steps, while admission is waiting
// on it: the run is not closed (more offers may come) or holds offers
// not yet promoted, or a request is ready and the batch has a free slot
// but the KV cache has no room. A closed batch at full width
// decodes straight to its next completion instead. The grain is not
// just a latency bound: the power meter raises DVFS residency with each
// chunk's token count, so chunk lengths set reported power and energy,
// and a spurious cap on a closed batch would move Table III's power and
// cost rows.
const admitGrain = 16

// seqError names the operation and request behind a KV-cache failure.
// Formatting allocates, so it stays outside the annotated hot path; it
// ends the run.
func seqError(op, id string, err error) error {
	return fmt.Errorf("engine: %s %q: %w", op, id, err)
}

// queued is a request the scheduler holds with the instant it was
// offered: its arrival in a standalone stream, its dispatch instant
// under a fleet.
type queued struct {
	TimedRequest
	at float64
}

// activeSeq is a request mid-decode. The KV handle is resolved once at
// admission so the decode loop never touches the cache's sequence map;
// the request itself (arrival, deadline, session tag, token identities)
// rides along instead of in side maps.
type activeSeq struct {
	tr        TimedRequest
	at        float64 // offer instant
	handle    kvcache.Handle
	ctx       int // prompt + generated so far
	remaining int
	metrics   Metrics
	// admitAt is the clock at the admission decision (the request span's
	// start when tracing).
	admitAt float64
}

// scheduler is the engine's one admission/decode loop: continuous
// batching up to maxBatch concurrent decoders over the paged KV cache,
// with unbatched prefill (the paper's configuration) and decode advanced
// in closed-form chunks between arrival, admission and completion
// events. The loop is resumable: requests are offered at their arrival
// (or dispatch) instants, AdvanceTo runs it up to a horizon and yields
// at the loop top or after a prefill, and Close drains it. ServeSource
// and Serving offer timed requests, Run hands it a closed batch that has
// all arrived at the clock, and RunParallel seeds its active set with
// forked branches. The loop is O(events), not O(tokens), and
// allocation-free in steady state: per-run bookkeeping is sized by
// maxBatch and recycled.
type scheduler struct {
	e *Engine
	// held is every request offered and not yet admitted, split at the
	// promotion boundary: held.Live()[:split] is the admission queue, in
	// policy order, and the rest are offers the clock has not reached
	// yet, in offer order. Promotion moves the boundary instead of the
	// requests.
	held     queue.Queue[queued]
	split    int
	policy   SchedPolicy
	maxBatch int
	lean     bool
	// batch marks a closed-batch run (Run, RunParallel): it reports
	// BatchMetrics only, so no per-request latency ledger is kept.
	batch bool
	// closed marks a run that takes no more offers: it drains instead of
	// yielding at its horizon.
	closed bool
	// fx is the run's fault injection (nil undisturbed): its crashes fire
	// in order, and its stall and throttle windows are read through
	// faults, compiled once when the run opens.
	fx     *FaultInjection
	faults FaultIndex
	start  float64
	// crashAt is the next unfired crash instant (+Inf when none) and
	// crashes counts those fired; aborted collects what they destroyed
	// until the caller takes it.
	crashAt float64
	crashes int
	aborted []Abort

	// arena holds sequence bookkeeping: at most maxBatch sequences are
	// ever live, so maxBatch slots recycled through the free list cover
	// any stream length. active lists the decoding slots in admission
	// order; ctxs is decode scratch.
	arena  []activeSeq
	active []int
	free   []int
	ctxs   []int
	// futureGrowth is the worst-case block demand of the active set's
	// remaining decode. Admission reserves against it so a request can
	// never exhaust the cache mid-decode (the simulator's stand-in for
	// vLLM's preemption machinery). It is adjusted on admit and append —
	// a sequence's contribution is blocksFor(total) − blocksFor(ctx),
	// which reaches zero exactly when it finishes — instead of rescanned
	// per admission attempt.
	futureGrowth int

	out ServeMetrics

	// Tracing is resolved once per run; every producer site guards on
	// tra so a nil tracer pays exactly one pointer compare and the run's
	// timing and metrics stay byte-identical with tracing off.
	tra                         telemetry.Tracer
	kvGauge, actGauge, powGauge *telemetry.Series
	ttftHist, rateHist          *stats.Histogram
}

// newScheduler prepares a run from the engine's current clock. A batch
// run fills the admission queue or seeds the active set before calling
// Close; an open one takes offers.
func (e *Engine) newScheduler(maxBatch int, policy SchedPolicy, opts ServeOpts, batch bool) scheduler {
	if maxBatch <= 0 {
		maxBatch = 1
	}
	s := scheduler{
		e: e, policy: policy, maxBatch: maxBatch, lean: opts.LeanMetrics,
		batch: batch, fx: opts.Faults, start: e.clock, crashAt: math.Inf(1),
		arena: make([]activeSeq, maxBatch),
		// A 16-slot floor skips a short backlog's early append-growth
		// doublings; it is allocated on the first offer.
		held: queue.New[queued](16),
	}
	if fx := opts.Faults; fx != nil {
		s.faults = fx.Compile()
		if len(fx.Crashes) > 0 {
			s.crashAt = fx.Crashes[0]
		}
	}
	// One allocation backs the three maxBatch-bounded index slices (every
	// Generate call pays this setup); each is capacity-capped, so an
	// append never spills into its neighbour.
	ints := make([]int, 3*maxBatch)
	s.active = ints[:0:maxBatch]
	s.free = ints[maxBatch : 2*maxBatch : 2*maxBatch]
	s.ctxs = ints[2*maxBatch : 2*maxBatch : 3*maxBatch]
	for i := range s.free {
		s.free[i] = maxBatch - 1 - i
	}
	if !s.lean {
		s.out.Requests = make([]Metrics, 0, opts.SizeHint)
	}
	if !batch {
		s.out.Latencies = make([]float64, 0, opts.SizeHint)
	}
	if tra := e.cfg.Trace; tra != nil {
		s.tra = tra
		s.kvGauge = tra.Gauge("kv_used_blocks")
		s.actGauge = tra.Gauge("active_requests")
		s.powGauge = tra.Gauge("power_watts")
		s.ttftHist = tra.Histogram("ttft_seconds", telemetry.TTFTBuckets)
		s.rateHist = tra.Histogram("decode_tokens_per_sec", telemetry.DecodeRateBuckets)
	}
	return s
}

// Offer hands the run a request at instant at — its arrival, or a later
// dispatch instant; latency still counts from tr.Arrival. Instants must
// not decrease across offers.
func (s *scheduler) Offer(tr TimedRequest, at float64) {
	s.held.Push(queued{TimedRequest: tr, at: at})
}

// Aborted returns the requests crashes have destroyed since the last
// call, in admission order then queue order. The slice is reused by the
// next AdvanceTo.
func (s *scheduler) Aborted() []Abort {
	a := s.aborted
	s.aborted = s.aborted[:0]
	return a
}

// Close drains the run — no more offers — and returns its metrics, with
// latency percentiles for an open run.
func (s *scheduler) Close() (ServeMetrics, error) {
	s.closed = true
	if err := s.AdvanceTo(math.Inf(1)); err != nil {
		return s.out, err
	}
	s.out.WallTime = s.e.clock - s.start
	s.out.PeakKVBlocks = s.e.cache.PeakUsed()
	if len(s.out.Latencies) > 0 {
		s.out.MeanLatency = stats.Mean(s.out.Latencies)
		s.out.P50Latency, s.out.P95Latency, s.out.P99Latency = stats.Percentiles3(s.out.Latencies)
	}
	return s.out, nil
}

// AdvanceTo drives the loop up to horizon t: events starting before t
// execute and crashes at or before t fire. An open run yields at the
// loop top, or after a prefill, once the clock is within 1e-12 of t, so
// a later offer at t joins the promotion there as if it had been there
// all along; a closed run drains.
//
// Advancing commits: an open run cannot know whether more offers will
// follow, so it caps every decode chunk before t at admitGrain, while
// Close right after the last offer lets the drain run to each
// completion. Advancing past the last offer and then closing therefore
// serves the same requests as closing at once, but its chunk
// boundaries — and so Events, energy, completion instants and where
// stalls land — can differ. Only the furthest horizon matters: any
// advances before it, and any up to the last offer, change nothing.
//
//edgereasoning:hotpath bench=BenchmarkServeHotLoop
func (s *scheduler) AdvanceTo(t float64) error {
	e := s.e
	for {
		if s.crashAt <= t && e.clock >= s.crashAt {
			if err := s.crash(); err != nil {
				return err
			}
			continue
		}
		if !s.closed && t <= e.clock+1e-12 {
			return nil
		}
		s.promote()
		// Idle: jump to the next offer, or to a crash due before it.
		if len(s.active) == 0 && s.split == 0 {
			next := math.Inf(1)
			if s.held.Len() > s.split {
				next = s.held.Live()[s.split].at
			} else if s.closed || s.crashAt > t {
				return nil
			}
			if s.crashAt <= t && s.crashAt <= next {
				next = s.crashAt
			}
			e.clock = max(e.clock, next)
			continue
		}
		// Admission leaves the active set non-empty: it admits the ready
		// head or fails when nothing is active to drain.
		yield, err := s.admit(t)
		if err != nil {
			return err
		}
		if yield {
			continue // back to the top: the horizon, or a crash cut
		}
		if err := s.decodeStep(); err != nil {
			return err
		}
	}
}

// cut stops the clock at the next crash when work running to end would
// straddle it, reporting whether it did: the work is abandoned, and the
// crash fires once the run is advanced to its instant.
//
//edgereasoning:hotpath bench=BenchmarkServeHotLoop
func (s *scheduler) cut(end float64) bool {
	if end <= s.crashAt {
		return false
	}
	s.e.clock = s.crashAt
	return true
}

// crash fires the next crash point: every request the engine holds —
// the active set, the admission queue and offers not yet promoted, in
// that order — is aborted with the service it had received, its KV
// blocks are freed, and the prefix index is wiped.
func (s *scheduler) crash() error {
	e := s.e
	s.crashes++
	s.crashAt = math.Inf(1)
	if s.crashes < len(s.fx.Crashes) {
		s.crashAt = s.fx.Crashes[s.crashes]
	}
	for _, slot := range s.active {
		a := &s.arena[slot]
		if err := e.cache.FreeH(a.handle); err != nil {
			return seqError("crash", a.tr.ID, err)
		}
		s.aborted = append(s.aborted, Abort{TimedRequest: a.tr, OfferedAt: a.at, Lost: a.metrics.TotalTime()})
		*a = activeSeq{}
		s.free = append(s.free, slot)
	}
	s.active = s.active[:0]
	s.futureGrowth = 0
	s.held.Filter(func(*queued) bool { return false }, func(f *queued) {
		s.aborted = append(s.aborted, Abort{TimedRequest: f.TimedRequest, OfferedAt: f.at})
	})
	s.split = 0
	if e.prefix != nil {
		e.prefix.CrashReset(s.fx.KeepHost)
	}
	return nil
}

// promote moves the promotion boundary past every offer the clock has
// reached. FCFS admits in offer order, so nothing moves; EDF rotates
// each promoted offer back to its earliest-deadline-first place, after
// any queued request with an equal key — element for element what a
// stable sort of the admission queue produces, without re-sorting the
// sorted part.
//
//edgereasoning:hotpath bench=BenchmarkServeHotLoop
func (s *scheduler) promote() {
	live := s.held.Live()
	for ; s.split < len(live); s.split++ {
		if live[s.split].at > s.e.clock+1e-12 {
			return
		}
		if s.policy != EDF {
			continue
		}
		key, j := edfKey(live[s.split].Deadline), s.split
		for j > 0 && edfKey(live[j-1].Deadline) > key {
			j--
		}
		if j < s.split {
			q := live[s.split]
			copy(live[j+1:s.split+1], live[j:s.split])
			live[j] = q
		}
	}
}

// edfKey orders deadlines with 0 (none) last.
//
//edgereasoning:hotpath bench=BenchmarkServeHotLoop
func edfKey(d float64) float64 {
	if d == 0 {
		return math.Inf(1)
	}
	return d
}

// admit moves ready requests into the active set while there is a free
// slot and KV room, prefilling each. It reports a yield when a prefill
// brought the clock to horizon t, or a crash cut one short.
//
//edgereasoning:hotpath bench=BenchmarkServeHotLoop
func (s *scheduler) admit(t float64) (bool, error) {
	e, fx, tra := s.e, s.fx, s.tra
	for s.split > 0 && len(s.active) < s.maxBatch {
		// Read the head in place; it is copied once, into the vacant
		// arena slot, before popping zeroes it.
		tr := &s.held.Live()[0]
		if tr.PromptTokens <= 0 {
			return false, fmt.Errorf("engine: request %q has no prompt", tr.ID) //edgereasoning:allow hotpath -- terminal error, ends the run
		}
		worstCase := e.blocksFor(tr.PromptTokens + tr.OutputTokens)
		// With a prefix cache, retained blocks are reclaimable
		// capacity. Probe first — touching the matched chain makes it
		// MRU, so eviction spares it — then evict cold prefixes until
		// the unmatched demand fits. Under extreme pressure eviction
		// can still trim the probed chain itself (growing the demand),
		// so re-probe and repeat until the demand fits or nothing is
		// left to evict; the final probe is exactly what Acquire finds.
		var syms []uint64
		probedBlocks := 0
		if e.prefix != nil {
			if len(tr.PromptSyms) >= tr.PromptTokens {
				syms = tr.PromptSyms[:tr.PromptTokens]
				probedBlocks = e.prefix.Probe(syms)
			}
			for worstCase-probedBlocks+s.futureGrowth > e.cache.FreeBlocks() {
				// Progress is measured in reclaimed capacity, not eviction
				// counts: EnsureFree stops on a zero-reclaim round (shared
				// leaves), and with a host tier demotions free blocks
				// without bumping Evictions at all.
				before := e.cache.FreeBlocks()
				e.prefix.EnsureFree(worstCase - probedBlocks + s.futureGrowth)
				if e.cache.FreeBlocks() == before {
					break
				}
				if syms != nil {
					probedBlocks = e.prefix.Probe(syms)
				}
			}
		}
		if worstCase-probedBlocks+s.futureGrowth > e.cache.FreeBlocks() {
			if len(s.active) > 0 {
				return false, nil // drain the active set to free capacity first
			}
			return false, fmt.Errorf("engine: request %q (%d tokens) exceeds KV capacity even alone", //edgereasoning:allow hotpath -- terminal error, ends the run
				tr.ID, tr.PromptTokens+tr.OutputTokens)
		}
		// Field by field, so no activeSeq is built elsewhere and copied;
		// seat sets the handle.
		a := s.vacant()
		a.tr, a.at, a.admitAt = tr.TimedRequest, tr.at, e.clock
		a.ctx, a.remaining = tr.PromptTokens, tr.OutputTokens
		a.metrics = Metrics{ID: tr.ID, PromptTokens: tr.PromptTokens, OutputTokens: tr.OutputTokens}
		s.held.PopFront()
		s.split--
		id, prompt := a.tr.ID, a.tr.PromptTokens
		matched := 0
		restore := 0.0
		if syms != nil {
			restoreBefore := e.prefix.Metrics().RestoreSeconds
			m, err := e.prefix.Acquire(id, syms)
			if err != nil {
				return false, seqError("admit", id, err)
			}
			matched = m
			s.out.PrefixLookups++
			s.out.PrefixLookupTokens += prompt
			if matched > 0 {
				s.out.PrefixHits++
				s.out.SavedPrefillTokens += matched
			}
			// A matched chain segment that had been demoted to host DRAM
			// was just promoted back; its transfer time lands on this
			// request's clock, ahead of prefill (part of TTFT).
			if restore = e.prefix.Metrics().RestoreSeconds - restoreBefore; restore > 0 {
				s.out.HostHits++
				s.out.RestoreSeconds += restore
			}
		} else if err := e.cache.AllocateReserve(id, prompt, prompt+a.tr.OutputTokens); err != nil {
			return false, seqError("admit", id, err)
		}
		a.metrics.CachedPromptTokens, a.metrics.RestoreTime = matched, restore
		slot, err := s.seat()
		if err != nil {
			return false, seqError("admit", id, err)
		}
		if syms != nil {
			// Acquire seeded only the matched blocks; append the suffix
			// the prefill below computes (the whole prompt on a cold
			// start).
			if err := e.cache.AppendTokensH(a.handle, prompt-matched); err != nil {
				return false, seqError("admit", id, err)
			}
		}
		if fx != nil {
			// A stalled device starts the restore+prefill at the window's
			// end; the wait lands in this request's TTFT.
			if st := s.faults.StallEnd(e.clock); st > e.clock {
				if s.cut(st) {
					return true, nil
				}
				if tra != nil {
					tra.Record(telemetry.Span{ID: id, Kind: telemetry.KindStall,
						Lane: slot, Start: e.clock, End: st})
				}
				e.clock = st
			}
		}
		res := e.prefill(prompt - matched)
		if from := e.clock; s.cut(from + restore + res.Time) {
			// The crash lands mid-restore or mid-prefill: what ran is lost.
			a.metrics.RestoreTime, a.metrics.PrefillTime = 0, e.clock-from
			return true, nil
		}
		if tra != nil && restore > 0 {
			tra.Record(telemetry.Span{ID: id, Kind: telemetry.KindRestore,
				Lane: slot, Start: e.clock, End: e.clock + restore})
		}
		e.clock += restore
		if tra != nil {
			tra.Record(telemetry.Span{ID: id, Kind: telemetry.KindPrefill,
				Lane: slot, Start: e.clock, End: e.clock + res.Time,
				Tokens: prompt - matched, Cached: matched})
			s.ttftHist.Observe(e.clock + res.Time - a.at)
		}
		e.clock += res.Time
		s.out.Events++
		a.metrics.PrefillTime = res.Time
		a.metrics.PrefillEnergy = e.meter.Energy(res)
		s.out.TotalEnergy += a.metrics.PrefillEnergy
		if tra != nil {
			s.kvGauge.Sample(e.clock, float64(e.cache.UsedBlocks()))
			s.actGauge.Sample(e.clock, float64(len(s.active)))
		}
		if !s.closed && t <= e.clock+1e-12 {
			return true, nil
		}
		s.promote()
	}
	return false, nil
}

// vacant returns the free arena slot the next seat fills; the caller
// builds the admitted sequence there.
//
//edgereasoning:hotpath bench=BenchmarkServeHotLoop
func (s *scheduler) vacant() *activeSeq { return &s.arena[s.free[len(s.free)-1]] }

// seat admits the sequence built in the vacant slot: it resolves the
// sequence's KV handle, reserves its block table to the final length —
// known up front, so the whole decode stays allocation-free — takes the
// slot off the free list and appends it to the active set, adding its
// remaining decode growth to futureGrowth. It returns the slot, which is
// also the sequence's trace lane.
//
//edgereasoning:hotpath bench=BenchmarkServeHotLoop
func (s *scheduler) seat() (int, error) {
	slot := s.free[len(s.free)-1]
	a := &s.arena[slot]
	h, err := s.e.cache.Lookup(a.tr.ID)
	if err != nil {
		return 0, err
	}
	if err := s.e.cache.ReserveH(h, a.ctx+a.remaining); err != nil {
		return 0, err
	}
	a.handle = h
	s.free = s.free[:len(s.free)-1]
	s.futureGrowth += s.e.blocksFor(a.ctx+a.remaining) - s.e.blocksFor(a.ctx)
	s.active = append(s.active, slot)
	return slot, nil
}

// decodeStep advances the active set to its next event — the shortest
// remaining sequence completes, or the admission grain elapses — with
// the chunk's energy split equally across the batch, then reaps.
//
//edgereasoning:hotpath bench=BenchmarkServeHotLoop
func (s *scheduler) decodeStep() error {
	e, fx, tra := s.e, s.fx, s.tra
	chunk := s.arena[s.active[0]].remaining
	s.ctxs = s.ctxs[:0]
	for _, slot := range s.active {
		chunk = min(chunk, s.arena[slot].remaining)
		s.ctxs = append(s.ctxs, s.arena[slot].ctx)
	}
	if chunk <= 0 {
		return s.reap() // zero-output request(s) finish immediately
	}
	if (!s.closed || s.held.Len() > s.split || (s.split > 0 && len(s.active) < s.maxBatch)) && chunk > admitGrain {
		chunk = admitGrain
	}
	if fx != nil {
		// No decode progress inside a stall window.
		if st := s.faults.StallEnd(e.clock); st > e.clock {
			if s.cut(st) {
				return nil
			}
			if tra != nil {
				for _, slot := range s.active {
					tra.Record(telemetry.Span{ID: s.arena[slot].tr.ID, Kind: telemetry.KindStall,
						Lane: slot, Start: e.clock, End: st})
				}
			}
			e.clock = st
		}
	}
	res := e.decodeChunk(s.ctxs, chunk)
	energy := e.meter.Energy(res)
	throttleF, cause := 1.0, ""
	if fx != nil {
		// Thermal throttle: the chunk's tokens take Factor times as long
		// (energy is computed from the unstretched result — the same
		// work, spread over more seconds at lower power).
		if f := s.faults.ThrottleAt(e.clock); f > 1 {
			res.Time *= f
			throttleF, cause = f, "throttle"
		}
	}
	decodeFrom := e.clock
	if s.cut(decodeFrom + res.Time) {
		// The crash lands mid-chunk: what ran of it is lost work.
		for _, slot := range s.active {
			s.arena[slot].metrics.DecodeTime += e.clock - decodeFrom
		}
		return nil
	}
	e.clock += res.Time
	s.out.Events++
	s.out.TotalEnergy += energy
	perSeqEnergy := energy / float64(len(s.active))
	for _, slot := range s.active {
		a := &s.arena[slot]
		if err := e.cache.AppendTokensH(a.handle, chunk); err != nil {
			return seqError("decode", a.tr.ID, err)
		}
		s.futureGrowth -= e.blocksFor(a.ctx+chunk) - e.blocksFor(a.ctx)
		a.ctx += chunk
		a.remaining -= chunk
		a.metrics.DecodeTime += res.Time
		a.metrics.DecodeEnergy += perSeqEnergy
	}
	if tra != nil {
		for _, slot := range s.active {
			tra.Record(telemetry.Span{ID: s.arena[slot].tr.ID, Kind: telemetry.KindDecode,
				Lane: slot, Start: decodeFrom, End: e.clock,
				Tokens: chunk, Cause: cause, Factor: throttleF})
		}
		s.kvGauge.Sample(e.clock, float64(e.cache.UsedBlocks()))
		s.actGauge.Sample(e.clock, float64(len(s.active)))
		if res.Time > 0 {
			s.powGauge.Sample(e.clock, energy/res.Time)
		}
	}
	return s.reap()
}

// reap records every completed sequence through finish — in descending
// active order, matching the historical deletion loop so
// completion-ordered outputs are unchanged — then compacts the active
// set in one order-preserving pass.
//
//edgereasoning:hotpath bench=BenchmarkServeHotLoop
func (s *scheduler) reap() error {
	done := 0
	for i := len(s.active) - 1; i >= 0; i-- {
		if slot := s.active[i]; s.arena[slot].remaining <= 0 {
			if err := s.finish(slot); err != nil {
				return err
			}
			done++
		}
	}
	if done == 0 {
		return nil
	}
	kept := s.active[:0]
	for _, slot := range s.active {
		if s.arena[slot].remaining > 0 {
			kept = append(kept, slot)
		}
	}
	s.active = kept
	return nil
}

// finish releases a completed sequence's KV blocks — retaining its
// history in the prefix index when it carried token identities — records
// its metrics, and returns its slot to the free list.
//
//edgereasoning:hotpath bench=BenchmarkServeHotLoop
func (s *scheduler) finish(slot int) error {
	e, a := s.e, &s.arena[slot]
	if e.prefix != nil && len(a.tr.PromptSyms) >= a.tr.PromptTokens {
		// Retain the finished history (prompt + known output identities)
		// for the session's next turn instead of dropping the blocks.
		outSyms := a.tr.OutputSyms
		if len(outSyms) > a.tr.OutputTokens {
			outSyms = outSyms[:a.tr.OutputTokens]
		}
		if err := e.prefix.Release(a.handle, a.tr.PromptSyms[:a.tr.PromptTokens], outSyms); err != nil {
			return seqError("finish", a.tr.ID, err)
		}
	} else if err := e.cache.FreeH(a.handle); err != nil {
		return seqError("finish", a.tr.ID, err)
	}
	// Latency is finish − arrival, evaluated as the engine-local time
	// since the offer plus the wait before it (zero in a standalone
	// stream, the ingress wait under a fleet).
	local, wait := e.clock-a.at, a.at-a.tr.Arrival
	if !s.batch {
		s.out.Latencies = append(s.out.Latencies, local+wait)
	}
	s.out.Served++
	if a.tr.Deadline > 0 {
		s.out.DeadlinesTotal++
		if e.clock <= a.tr.Deadline {
			s.out.DeadlinesMet++
		}
	}
	if !s.lean {
		a.metrics.QueueTime = local - a.metrics.TotalTime() + wait
		s.out.Requests = append(s.out.Requests, a.metrics)
	}
	if tra := s.tra; tra != nil {
		tra.Record(telemetry.Span{ID: a.tr.ID, Kind: telemetry.KindRequest,
			Lane: slot, Start: a.admitAt, End: e.clock, Session: a.tr.SessionID,
			Wait:   a.admitAt - a.at,
			Tokens: a.tr.PromptTokens + a.tr.OutputTokens,
			Cached: a.metrics.CachedPromptTokens})
		if a.metrics.DecodeTime > 0 {
			s.rateHist.Observe(float64(a.tr.OutputTokens) / a.metrics.DecodeTime)
		}
	}
	s.out.TotalTokens += a.tr.PromptTokens + a.tr.OutputTokens
	a.tr.PromptSyms, a.tr.OutputSyms = nil, nil
	s.free = append(s.free, slot)
	return nil
}
