package engine

import (
	"fmt"

	"edgereasoning/internal/kvcache"
	"edgereasoning/internal/stats"
	"edgereasoning/internal/telemetry"
)

// admitGrain caps a decode chunk, in steps, while admission is waiting
// on it: a request has yet to arrive, or one is ready and the batch has
// a free slot but the KV cache has no room. A closed batch at full width
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

// activeSeq is a request mid-decode. The KV handle is resolved once at
// admission so the decode loop never touches the cache's sequence map;
// arrival/deadline ride along here instead of in side maps.
type activeSeq struct {
	req       Request
	handle    kvcache.Handle
	ctx       int // prompt + generated so far
	remaining int
	metrics   Metrics
	arrival   float64
	deadline  float64
	// admitAt is the clock at the admission decision (the request span's
	// start when tracing); session carries the request's session tag for
	// span attribution. Both are plain copies — no tracing cost when off.
	admitAt float64
	session string
	// promptSyms/outputSyms carry the request's token identities so the
	// finished sequence can be retained in the prefix index (nil when the
	// engine has no prefix cache or the request carried none).
	promptSyms []uint64
	outputSyms []uint64
}

// scheduler is the engine's one admission/decode loop: continuous
// batching up to maxBatch concurrent decoders over the paged KV cache,
// with unbatched prefill (the paper's configuration) and decode advanced
// in closed-form chunks between arrival, admission and completion
// events. ServeSource streams timed requests into it, Run hands it a
// closed batch that has all arrived at the clock, and RunParallel seeds
// its active set with forked branches. The loop is O(events), not
// O(tokens), and allocation-free in steady state: per-run bookkeeping is
// sized by maxBatch and recycled.
type scheduler struct {
	e        *Engine
	in       Peekable
	ready    readyQueue
	policy   SchedPolicy
	maxBatch int
	lean     bool
	// closed marks a run with no source (Run, RunParallel): it reports
	// BatchMetrics only, so no per-request latency ledger is kept.
	closed bool
	fx     *FaultInjection
	start  float64

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

// newScheduler prepares a run from the engine's current clock. A nil src
// is a closed batch: the caller fills the ready queue or seeds the
// active set before calling run.
func (e *Engine) newScheduler(src Source, maxBatch int, policy SchedPolicy, opts ServeOpts) scheduler {
	if maxBatch <= 0 {
		maxBatch = 1
	}
	s := scheduler{
		e: e, in: Peekable{src: src, done: src == nil},
		policy: policy, maxBatch: maxBatch, lean: opts.LeanMetrics,
		closed: src == nil, fx: opts.Faults, start: e.clock,
		arena: make([]activeSeq, maxBatch),
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
	if !s.closed {
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

// run drives the loop until the source, the ready queue and the active
// set are all empty.
//
//edgereasoning:hotpath bench=BenchmarkServeHotLoop
func (s *scheduler) run() error {
	e := s.e
	for s.in.More() || s.ready.len() > 0 || len(s.active) > 0 {
		s.promote()
		// Idle: jump to the next arrival.
		if len(s.active) == 0 && s.ready.len() == 0 {
			tr, ok := s.in.Peek()
			if !ok {
				break
			}
			e.clock = tr.Arrival
			continue
		}
		// Admission leaves the active set non-empty: it admits the ready
		// head or fails when nothing is active to drain.
		if err := s.admit(); err != nil {
			return err
		}
		if err := s.decodeStep(); err != nil {
			return err
		}
	}
	s.out.WallTime = e.clock - s.start
	s.out.PeakKVBlocks = e.cache.PeakUsed()
	return nil
}

// promote moves every request that has arrived by the clock from the
// source into the ready queue.
//
//edgereasoning:hotpath bench=BenchmarkServeHotLoop
func (s *scheduler) promote() {
	for {
		tr, ok := s.in.Peek()
		if !ok || tr.Arrival > s.e.clock+1e-12 {
			return
		}
		s.in.Next()
		if s.policy == EDF {
			s.ready.insertEDF(tr)
		} else {
			s.ready.pushBack(tr)
		}
	}
}

// admit moves ready requests into the active set while there is a free
// slot and KV room, prefilling each.
//
//edgereasoning:hotpath bench=BenchmarkServeHotLoop
func (s *scheduler) admit() error {
	e, fx, tra := s.e, s.fx, s.tra
	for s.ready.len() > 0 && len(s.active) < s.maxBatch {
		tr := s.ready.front()
		if tr.PromptTokens <= 0 {
			return fmt.Errorf("engine: request %q has no prompt", tr.ID) //edgereasoning:allow hotpath -- terminal error, ends the run
		}
		// A crash boundary: the dispatcher marked this request as the
		// first one routed after the replica's crash restart, so the
		// prefix cache is wiped before admission even probes it.
		if fx != nil && e.prefix != nil && len(fx.CrashWipes) > 0 {
			if keep, ok := fx.CrashWipes[tr.ID]; ok {
				e.prefix.CrashReset(keep)
				delete(fx.CrashWipes, tr.ID)
			}
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
				return nil // drain the active set to free capacity first
			}
			return fmt.Errorf("engine: request %q (%d tokens) exceeds KV capacity even alone", //edgereasoning:allow hotpath -- terminal error, ends the run
				tr.ID, tr.PromptTokens+tr.OutputTokens)
		}
		s.ready.popFront()
		matched := 0
		restore := 0.0
		if syms != nil {
			restoreBefore := e.prefix.Metrics().RestoreSeconds
			m, err := e.prefix.Acquire(tr.ID, syms)
			if err != nil {
				return seqError("admit", tr.ID, err)
			}
			matched = m
			s.out.PrefixLookups++
			s.out.PrefixLookupTokens += tr.PromptTokens
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
		} else if err := e.cache.AllocateReserve(tr.ID, tr.PromptTokens,
			tr.PromptTokens+tr.OutputTokens); err != nil {
			return seqError("admit", tr.ID, err)
		}
		seq := activeSeq{req: tr.Request, ctx: tr.PromptTokens,
			remaining: tr.OutputTokens, arrival: tr.Arrival, deadline: tr.Deadline,
			admitAt: e.clock, session: tr.SessionID,
			metrics: Metrics{ID: tr.ID, PromptTokens: tr.PromptTokens,
				OutputTokens: tr.OutputTokens, CachedPromptTokens: matched,
				RestoreTime: restore}}
		if e.prefix != nil {
			seq.promptSyms, seq.outputSyms = tr.PromptSyms, tr.OutputSyms
		}
		slot, err := s.seat(seq)
		if err != nil {
			return seqError("admit", tr.ID, err)
		}
		a := &s.arena[slot]
		if syms != nil {
			// Acquire seeded only the matched blocks; append the suffix
			// the prefill below computes (the whole prompt on a cold
			// start).
			if err := e.cache.AppendTokensH(a.handle, tr.PromptTokens-matched); err != nil {
				return seqError("admit", tr.ID, err)
			}
		}
		if fx != nil {
			// A stalled device starts the restore+prefill at the window's
			// end; the wait lands in this request's TTFT.
			if st := fx.stallEnd(e.clock); st > e.clock {
				if tra != nil {
					tra.Record(telemetry.Span{ID: tr.ID, Kind: telemetry.KindStall,
						Lane: slot, Start: e.clock, End: st})
				}
				e.clock = st
			}
		}
		if tra != nil && restore > 0 {
			tra.Record(telemetry.Span{ID: tr.ID, Kind: telemetry.KindRestore,
				Lane: slot, Start: e.clock, End: e.clock + restore})
		}
		e.clock += restore
		res := e.prefill(tr.PromptTokens - matched)
		if tra != nil {
			tra.Record(telemetry.Span{ID: tr.ID, Kind: telemetry.KindPrefill,
				Lane: slot, Start: e.clock, End: e.clock + res.Time,
				Tokens: tr.PromptTokens - matched, Cached: matched})
			s.ttftHist.Observe(e.clock + res.Time - tr.Arrival)
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
		s.promote()
	}
	return nil
}

// seat resolves an admitted sequence's KV handle, reserves its block
// table to the final length — known up front, so the whole decode stays
// allocation-free — and places it in a free arena slot at the end of the
// active set, adding its remaining decode growth to futureGrowth. It
// returns the slot, which is also the sequence's trace lane.
//
//edgereasoning:hotpath bench=BenchmarkServeHotLoop
func (s *scheduler) seat(seq activeSeq) (int, error) {
	h, err := s.e.cache.Lookup(seq.req.ID)
	if err != nil {
		return 0, err
	}
	if err := s.e.cache.ReserveH(h, seq.ctx+seq.remaining); err != nil {
		return 0, err
	}
	seq.handle = h
	slot := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	s.arena[slot] = seq
	s.futureGrowth += s.e.blocksFor(seq.ctx+seq.remaining) - s.e.blocksFor(seq.ctx)
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
	if (s.in.More() || (s.ready.len() > 0 && len(s.active) < s.maxBatch)) && chunk > admitGrain {
		chunk = admitGrain
	}
	if fx != nil {
		// No decode progress inside a stall window.
		if st := fx.stallEnd(e.clock); st > e.clock {
			if tra != nil {
				for _, slot := range s.active {
					tra.Record(telemetry.Span{ID: s.arena[slot].req.ID, Kind: telemetry.KindStall,
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
		if f := fx.throttleAt(e.clock); f > 1 {
			res.Time *= f
			throttleF, cause = f, "throttle"
		}
	}
	decodeFrom := e.clock
	e.clock += res.Time
	s.out.Events++
	s.out.TotalEnergy += energy
	perSeqEnergy := energy / float64(len(s.active))
	for _, slot := range s.active {
		a := &s.arena[slot]
		if err := e.cache.AppendTokensH(a.handle, chunk); err != nil {
			return seqError("decode", a.req.ID, err)
		}
		s.futureGrowth -= e.blocksFor(a.ctx+chunk) - e.blocksFor(a.ctx)
		a.ctx += chunk
		a.remaining -= chunk
		a.metrics.DecodeTime += res.Time
		a.metrics.DecodeEnergy += perSeqEnergy
	}
	if tra != nil {
		for _, slot := range s.active {
			tra.Record(telemetry.Span{ID: s.arena[slot].req.ID, Kind: telemetry.KindDecode,
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
	if e.prefix != nil && len(a.promptSyms) >= a.req.PromptTokens {
		// Retain the finished history (prompt + known output identities)
		// for the session's next turn instead of dropping the blocks.
		outSyms := a.outputSyms
		if len(outSyms) > a.req.OutputTokens {
			outSyms = outSyms[:a.req.OutputTokens]
		}
		if err := e.prefix.Release(a.handle, a.promptSyms[:a.req.PromptTokens], outSyms); err != nil {
			return seqError("finish", a.req.ID, err)
		}
	} else if err := e.cache.FreeH(a.handle); err != nil {
		return seqError("finish", a.req.ID, err)
	}
	lat := e.clock - a.arrival
	if !s.closed {
		s.out.Latencies = append(s.out.Latencies, lat)
	}
	s.out.Served++
	if a.deadline > 0 {
		s.out.DeadlinesTotal++
		if e.clock <= a.deadline {
			s.out.DeadlinesMet++
		}
	}
	if !s.lean {
		a.metrics.QueueTime = lat - a.metrics.TotalTime()
		s.out.Requests = append(s.out.Requests, a.metrics)
	}
	if tra := s.tra; tra != nil {
		tra.Record(telemetry.Span{ID: a.req.ID, Kind: telemetry.KindRequest,
			Lane: slot, Start: a.admitAt, End: e.clock, Session: a.session,
			Wait:   a.admitAt - a.arrival,
			Tokens: a.req.PromptTokens + a.req.OutputTokens,
			Cached: a.metrics.CachedPromptTokens})
		if a.metrics.DecodeTime > 0 {
			s.rateHist.Observe(float64(a.req.OutputTokens) / a.metrics.DecodeTime)
		}
	}
	s.out.TotalTokens += a.req.PromptTokens + a.req.OutputTokens
	a.promptSyms, a.outputSyms = nil, nil
	s.free = append(s.free, slot)
	return nil
}
