// Package engine is the simulated serving engine: a vLLM-style runtime
// that admits requests, prefills prompts, decodes with continuous
// batching over a paged KV cache, and accounts wall time, power, and
// energy through the GPU simulator. It is the substrate every
// latency/energy experiment in the paper runs on. A serve run reports
// its additive counters (served requests, deadlines, prefix-cache and
// host-tier accounting) as ServeCounters, which a fleet adds up across
// its replicas.
package engine

import (
	"fmt"

	"edgereasoning/internal/gpusim"
	"edgereasoning/internal/hw"
	"edgereasoning/internal/kvcache"
	"edgereasoning/internal/label"
	"edgereasoning/internal/model"
	"edgereasoning/internal/power"
	"edgereasoning/internal/queue"
	"edgereasoning/internal/telemetry"
)

// Overhead models a host-side inference framework's cost on top of the
// raw kernels: the Table IX comparison (HF Transformers vs vLLM vs
// TRT-LLM) reduces to these terms.
type Overhead struct {
	Name          string
	PrefillFactor float64 // multiplies prefill time (graph build, tokenizer)
	StepFactor    float64 // multiplies per-step decode kernel time
	PerStepHost   float64 // seconds of host work added per decode step
}

// normalized returns the profile with zero fields defaulted to identity.
func (o Overhead) normalized() Overhead {
	if o.PrefillFactor == 0 {
		o.PrefillFactor = 1
	}
	if o.StepFactor == 0 {
		o.StepFactor = 1
	}
	if o.Name == "" {
		o.Name = "vLLM"
	}
	return o
}

const (
	// blockSize is the KV page size in tokens (vLLM's default).
	blockSize = 16
	// memReserve is the fraction of DRAM withheld from the KV cache for
	// activations and runtime overheads.
	memReserve = 0.10
)

// Config assembles an engine.
type Config struct {
	Spec   model.Spec
	Device *hw.Device
	// Framework is the host-side overhead profile (default vLLM).
	Framework Overhead
	// PrefixCache attaches a cross-request prefix index to the KV cache:
	// completed sequences retain their blocks content-addressed, and a
	// later request whose PromptSyms share a prefix only prefills the
	// unmatched suffix (vLLM automatic-prefix-caching style). Off by
	// default; requests without PromptSyms are unaffected either way.
	PrefixCache bool
	// DeviceBlocks caps the KV cache at this many blocks when positive
	// and below the DRAM-derived size — the device-memory sweep knob for
	// tiering studies. Values at or above the derived size are ignored.
	DeviceBlocks int
	// HostTierBlocks, when positive, attaches a host-DRAM second tier of
	// that many blocks behind the prefix index: on device pressure, cold
	// prefix entries demote to host instead of dropping, and a later
	// matching request promotes them back, paying the restore cost.
	// Requires PrefixCache.
	HostTierBlocks int
	// HostLinkBandwidth is the host<->device link rate in bytes/second
	// used to price promotions (default kvcache.DefaultHostLinkBandwidth).
	HostLinkBandwidth float64
	// Trace, when non-nil, records per-request phase spans and sampled
	// gauges (KV occupancy, active batch, power) from every scheduler run
	// (Serve, Run, RunParallel) into the given telemetry track. Nil is
	// the default and costs nothing: every producer site is a nil check,
	// the scheduler's timing and metrics are byte-identical either way.
	Trace telemetry.Tracer
}

// Request is one generation job. OutputTokens is decided ahead of
// execution by the model twin (the engine transports tokens; it does not
// decide how many the model emits).
type Request struct {
	// ID labels the request's Metrics, trace spans and errors. It is a
	// value, rendered to text only where text is printed; neither the
	// engine nor a fleet looks a request up by it, so IDs need not be
	// unique for serving. telemetry.Breakdown groups spans by ID, so a
	// traced run that is broken down needs them unique within the run.
	ID           label.Label
	PromptTokens int
	OutputTokens int
}

// Metrics reports one completed request.
type Metrics struct {
	ID           label.Label
	PromptTokens int
	OutputTokens int
	// QueueTime is latency minus service time (restore + prefill +
	// decode): the wait for admission plus any time the request, once
	// admitted, sat stalled behind co-batched prefills or fault stall
	// windows.
	QueueTime   float64
	PrefillTime float64
	DecodeTime  float64
	// RestoreTime is the host-link transfer time spent promoting this
	// request's host-resident prefix blocks back to the device (0 without
	// a host tier or on a device-only hit). It lands before prefill, so
	// it is part of the request's TTFT.
	RestoreTime   float64
	PrefillEnergy float64 // joules
	DecodeEnergy  float64
	// CachedPromptTokens counts prompt tokens served from the prefix
	// cache instead of being prefilled (0 without a prefix cache).
	CachedPromptTokens int
}

// TotalTime is the request's service latency (restore + prefill +
// decode).
func (m Metrics) TotalTime() float64 { return m.RestoreTime + m.PrefillTime + m.DecodeTime }

// TTFT is the time from admission to the first generated token:
// host-tier restore plus prefill.
func (m Metrics) TTFT() float64 { return m.RestoreTime + m.PrefillTime }

// Latency includes queueing.
func (m Metrics) Latency() float64 { return m.QueueTime + m.TotalTime() }

// Energy is the request's total energy in joules.
func (m Metrics) Energy() float64 { return m.PrefillEnergy + m.DecodeEnergy }

// TPS is the output tokens per second of service time.
func (m Metrics) TPS() float64 {
	if t := m.TotalTime(); t > 0 {
		return float64(m.OutputTokens) / t
	}
	return 0
}

// BatchMetrics reports a whole workload run.
type BatchMetrics struct {
	// Requests holds one record per completed request, in completion
	// order; it is nil under ServeOpts.LeanMetrics.
	Requests    []Metrics
	WallTime    float64 // seconds from first admission to last completion
	TotalEnergy float64 // joules
	// TotalTokens counts prompt + generated tokens (the unit the cost
	// study bills).
	TotalTokens int
	// PeakKVBlocks is the cache high-water mark.
	PeakKVBlocks int
}

// AvgPower returns mean power over the busy window.
func (b BatchMetrics) AvgPower() float64 {
	if b.WallTime <= 0 {
		return 0
	}
	return b.TotalEnergy / b.WallTime
}

// OutputTokens sums generated tokens over the kept Requests, so it
// returns 0 when records were not kept (ServeOpts.LeanMetrics, or a fleet
// replica run without fleet.Config.KeepRequests).
func (b BatchMetrics) OutputTokens() int {
	n := 0
	for _, m := range b.Requests {
		n += m.OutputTokens
	}
	return n
}

// UserTPS is the mean per-request decode throughput (the "User TPS" row
// of Table III) over the kept Requests, so it returns 0 when records were
// not kept (ServeOpts.LeanMetrics, or a fleet replica run without
// fleet.Config.KeepRequests).
func (b BatchMetrics) UserTPS() float64 {
	if len(b.Requests) == 0 {
		return 0
	}
	sum := 0.0
	for _, m := range b.Requests {
		if m.DecodeTime > 0 {
			sum += float64(m.OutputTokens) / m.DecodeTime
		}
	}
	return sum / float64(len(b.Requests))
}

// Engine executes requests on the simulated device. Its device and
// simulator parameters are fixed for its lifetime: New resolves the cost
// model from them once.
type Engine struct {
	cfg   Config
	cost  *gpusim.CostModel
	meter *power.Meter
	cache *kvcache.Cache
	// prefix is the cross-request prefix index (nil unless
	// Config.PrefixCache is set).
	prefix *kvcache.PrefixIndex
	clock  float64
}

// New builds an engine, verifying the model fits the device and sizing
// the KV cache from leftover DRAM.
func New(cfg Config) (*Engine, error) {
	if cfg.Device == nil {
		return nil, fmt.Errorf("engine: nil device")
	}
	if err := cfg.Device.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Spec.Arch.Validate(); err != nil {
		return nil, err
	}
	cfg.Framework = cfg.Framework.normalized()
	if cfg.HostTierBlocks > 0 && !cfg.PrefixCache {
		return nil, fmt.Errorf("engine: HostTierBlocks requires PrefixCache (the tier holds prefix entries)")
	}

	cache, prefix, err := buildCache(cfg)
	if err != nil {
		return nil, err
	}
	return &Engine{
		cfg:    cfg,
		cost:   gpusim.New(cfg.Device).Resolve(cfg.Spec.Arch, cfg.Spec.DType),
		meter:  power.NewMeter(cfg.Device),
		cache:  cache,
		prefix: prefix,
	}, nil
}

// buildCache sizes the KV cache from leftover DRAM (capped by
// DeviceBlocks when set) and attaches the prefix index and host tier
// per cfg. New and Reset share it so a reset engine is sized exactly
// like a fresh one.
func buildCache(cfg Config) (*kvcache.Cache, *kvcache.PrefixIndex, error) {
	weights := cfg.Spec.Arch.WeightBytes(cfg.Spec.DType)
	reserve := int64(float64(cfg.Device.MemCapacity) * memReserve)
	kvBudget := cfg.Device.MemCapacity - weights - reserve
	if kvBudget <= 0 {
		return nil, nil, fmt.Errorf("engine: %s (%0.1f GB weights) does not fit %s",
			cfg.Spec.ID, float64(weights)/1e9, cfg.Device.Name)
	}
	cacheCfg := kvcache.ConfigForMemory(kvBudget, blockSize, cfg.Spec.Arch.KVBytesPerToken())
	if cfg.DeviceBlocks > 0 && cfg.DeviceBlocks < cacheCfg.NumBlocks {
		cacheCfg.NumBlocks = cfg.DeviceBlocks
	}
	cache, err := kvcache.New(cacheCfg)
	if err != nil {
		return nil, nil, err
	}
	var prefix *kvcache.PrefixIndex
	if cfg.PrefixCache {
		prefix = kvcache.NewPrefixIndex(cache)
		if cfg.HostTierBlocks > 0 {
			err := prefix.AttachHostTier(kvcache.HostTierConfig{
				Blocks:        cfg.HostTierBlocks,
				LinkBandwidth: cfg.HostLinkBandwidth,
			})
			if err != nil {
				return nil, nil, err
			}
		}
	}
	return cache, prefix, nil
}

// Spec returns the engine's model.
func (e *Engine) Spec() model.Spec { return e.cfg.Spec }

// Device returns the engine's device.
func (e *Engine) Device() *hw.Device { return e.cfg.Device }

// Meter exposes the power meter (read-only use).
func (e *Engine) Meter() *power.Meter { return e.meter }

// Clock returns the simulated time in seconds.
func (e *Engine) Clock() float64 { return e.clock }

// Reset rewinds the clock and empties the cache.
func (e *Engine) Reset() error {
	cache, prefix, err := buildCache(e.cfg)
	if err != nil {
		return err
	}
	e.cache = cache
	e.prefix = prefix
	e.clock = 0
	return nil
}

// prefill runs a prompt through the simulator and charges framework
// overhead.
//
//edgereasoning:hotpath bench=BenchmarkServeHotLoop
func (e *Engine) prefill(tokens int) gpusim.Result {
	res := e.cost.Prefill(tokens)
	res.Time *= e.cfg.Framework.PrefillFactor
	return res
}

// decodeChunk advances the active contexts n steps and charges framework
// overhead.
//
//edgereasoning:hotpath bench=BenchmarkServeHotLoop
func (e *Engine) decodeChunk(ctxs []int, n int) gpusim.Result {
	res := e.cost.DecodeChunk(ctxs, n)
	res.Time = res.Time*e.cfg.Framework.StepFactor + float64(n)*e.cfg.Framework.PerStepHost
	return res
}

// blocksFor mirrors the cache's page arithmetic: the KV blocks a
// sequence of tokens occupies.
//
//edgereasoning:hotpath bench=BenchmarkServeHotLoop
func (e *Engine) blocksFor(tokens int) int {
	if tokens <= 0 {
		return 0
	}
	return (tokens + blockSize - 1) / blockSize
}

// Generate executes one request in isolation (batch 1).
func (e *Engine) Generate(req Request) (Metrics, error) {
	b, err := e.Run([]Request{req}, 1)
	if err != nil {
		return Metrics{}, err
	}
	return b.Requests[0], nil
}

// Run executes a closed batch FCFS with continuous batching up to
// maxBatch concurrent decoders: every request has arrived at the current
// clock, so the scheduler starts from a full admission queue — the
// state an all-arrive-now FCFS source reaches on its first promotion.
func (e *Engine) Run(reqs []Request, maxBatch int) (BatchMetrics, error) {
	// No more than len(reqs) can ever be active; sizing by it keeps a
	// wide maxBatch on a small batch from allocating idle slots.
	s := e.newScheduler(min(maxBatch, len(reqs)), FCFS, ServeOpts{SizeHint: len(reqs)}, true)
	s.held = queue.New[queued](len(reqs))
	for _, r := range reqs {
		s.held.Push(queued{TimedRequest: TimedRequest{Request: r, Arrival: e.clock}, at: e.clock})
	}
	s.split = len(reqs)
	out, err := s.Close()
	return out.BatchMetrics, err
}

// RunParallel implements parallel test-time scaling (§V-E): one prefill
// at batch 1, then the prompt KV is forked copy-on-write to `factor`
// decoders which run as one batch. outputs gives each branch's generated
// length. The returned metrics hold one entry per branch, in completion
// order; branch 0 owns the prefill cost.
func (e *Engine) RunParallel(promptTokens int, outputs []int) (BatchMetrics, error) {
	if promptTokens <= 0 {
		return BatchMetrics{}, fmt.Errorf("engine: empty prompt")
	}
	if len(outputs) == 0 {
		return BatchMetrics{}, fmt.Errorf("engine: no branches")
	}
	// Capacity precheck: the shared prompt plus every branch's private
	// decode growth must fit, or the fan-out would die mid-decode.
	need := e.blocksFor(promptTokens)
	for _, o := range outputs {
		// Each branch copies the shared tail block on first write and
		// then grows privately.
		need += e.blocksFor(promptTokens+o) - e.blocksFor(promptTokens) + 1
	}
	if need > e.cache.FreeBlocks() {
		return BatchMetrics{}, fmt.Errorf("engine: parallel fan-out of %d branches needs %d KV blocks, %d free",
			len(outputs), need, e.cache.FreeBlocks())
	}

	s := e.newScheduler(len(outputs), FCFS, ServeOpts{SizeHint: len(outputs)}, true)
	// Branch 0 decodes on the prompt's own sequence; each later branch
	// forks it. Every block table is sized to its branch's final length.
	root, err := e.cache.Allocate(promptTokens, promptTokens+outputs[0])
	if err != nil {
		return s.out.BatchMetrics, err
	}
	res := e.prefill(promptTokens)
	if s.tra != nil {
		// The shared prefill sits on branch 0's lane, which owns its cost.
		s.tra.Record(telemetry.Span{ID: label.Par(0), Kind: telemetry.KindPrefill,
			Start: e.clock, End: e.clock + res.Time, Tokens: promptTokens})
		s.ttftHist.Observe(res.Time)
	}
	e.clock += res.Time
	prefillEnergy := e.meter.Energy(res)
	s.out.TotalEnergy += prefillEnergy

	// Seed the active set with the branches, in slot order, as if each
	// had been admitted at the start of the run. Branch 0 takes slot 0.
	for i, o := range outputs {
		h := root
		if i > 0 {
			if h, err = e.cache.Fork(root, promptTokens+o); err != nil {
				return s.out.BatchMetrics, err
			}
		}
		id := label.Par(i)
		req := Request{ID: id, PromptTokens: promptTokens, OutputTokens: o}
		*s.vacant() = activeSeq{tr: TimedRequest{Request: req, Arrival: s.start}, at: s.start,
			handle: h, ctx: promptTokens, remaining: o, admitAt: s.start,
			metrics: Metrics{ID: id, PromptTokens: promptTokens, OutputTokens: o}}
		s.seat()
	}
	s.arena[s.active[0]].metrics.PrefillTime = res.Time
	s.arena[s.active[0]].metrics.PrefillEnergy = prefillEnergy
	out, err := s.Close()
	return out.BatchMetrics, err
}

// CacheStats exposes KV occupancy for tests and examples.
func (e *Engine) CacheStats() kvcache.Stats { return e.cache.Stats() }

// PrefixMetrics exposes the engine-lifetime prefix-cache counters (zero
// value when the engine was built without Config.PrefixCache).
func (e *Engine) PrefixMetrics() kvcache.PrefixMetrics {
	if e.prefix == nil {
		return kvcache.PrefixMetrics{}
	}
	return e.prefix.Metrics()
}

// PeekPrefix reports how many leading blocks of syms are resident on
// the device and host tiers, without perturbing recency (both zero
// without a prefix cache). Routing layers use it to rank replicas by
// session warmth.
func (e *Engine) PeekPrefix(syms []uint64) (deviceBlocks, hostBlocks int) {
	if e.prefix == nil {
		return 0, 0
	}
	return e.prefix.Peek(syms)
}

// SimDecodeProbe returns the raw simulator result of a representative
// decode run at the given geometry, so callers can inspect utilization
// and power signals without executing a request (used by the Fig 10
// driver for the GPU-utilization axis).
func (e *Engine) SimDecodeProbe(prompt, output, batch int) gpusim.Result {
	return e.cost.DecodeRun(prompt, output, batch)
}
