package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"edgereasoning/internal/engine"
	"edgereasoning/internal/hw"
	"edgereasoning/internal/kvcache"
	"edgereasoning/internal/model"
	"edgereasoning/internal/session"
	"edgereasoning/internal/stats"
)

func init() {
	register("tiering", tieringStudy)
}

// defaultTierDeviceBlocks is the device-cache sweep: the smallest point
// is starved (the agentic stream's working set overflows it, so the run
// demotes and promotes continuously), the largest holds most histories
// resident and shows the tier costing nothing when idle.
var defaultTierDeviceBlocks = []int{192, 384, 768}

// parseDeviceBlocks resolves the tiering sweep's comma-separated
// device-cache sizes; an empty spelling selects the default sweep.
func parseDeviceBlocks(csv string) ([]int, error) {
	if strings.TrimSpace(csv) == "" {
		return append([]int(nil), defaultTierDeviceBlocks...), nil
	}
	parts := strings.Split(csv, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("experiments: bad device-blocks entry %q (want positive block counts)", p)
		}
		out = append(out, n)
	}
	return out, nil
}

// tieringStudy is the host-DRAM KV tier experiment: the session-grade
// agentic workload served on a single Orin at several device-cache
// sizes, each size run twice — device cache only, and with the host
// tier attached — so the sweep isolates what a second tier buys when
// device HBM is the binding constraint. Under pressure the tier turns
// evictions into demotions: a returning turn's history is restored over
// the host link (bytes / bandwidth, charged into TTFT) instead of being
// re-prefilled, so the token-weighted hit rate and the warm-turn tail
// TTFT both improve while generated tokens stay bit-identical — the
// tier moves blocks, never tokens. A verify table locks those claims at
// the most starved sweep point.
func tieringStudy(opts Options) ([]Table, error) {
	sessions, turns, branch, err := opts.sessionShape("tiering")
	if err != nil {
		return nil, err
	}
	if err := nonNegative("tiering", knob{"-host-blocks", float64(opts.TierHostBlocks)},
		knob{"-bw", opts.TierLinkBW}); err != nil {
		return nil, err
	}
	deviceSizes, err := parseDeviceBlocks(opts.TierDeviceBlocks)
	if err != nil {
		return nil, err
	}
	hostBlocks := opts.TierHostBlocks
	if hostBlocks == 0 {
		hostBlocks = 1024
	}
	bw := opts.TierLinkBW
	if bw == 0 {
		bw = kvcache.DefaultHostLinkBandwidth
	}

	reqs, err := session.Generate(session.AgentLoop(sessions, turns, branch), opts.Seed)
	if err != nil {
		return nil, err
	}
	spec := model.MustLookup(model.DSR1Qwen1_5B)
	const maxBatch = 8

	type run struct {
		sm engine.ServeMetrics
		pm kvcache.PrefixMetrics
	}
	serve := func(deviceBlocks, host int) (run, error) {
		e, err := engine.New(engine.Config{
			Spec: spec, Device: hw.JetsonAGXOrin64GB(), PrefixCache: true,
			DeviceBlocks: deviceBlocks, HostTierBlocks: host, HostLinkBandwidth: bw,
		})
		if err != nil {
			return run{}, err
		}
		sm, err := e.ServeSource(engine.NewSliceSource(reqs), maxBatch, engine.FCFS,
			engine.ServeOpts{SizeHint: len(reqs)})
		if err != nil {
			return run{}, err
		}
		return run{sm: sm, pm: e.PrefixMetrics()}, nil
	}

	sweep := Table{
		ID: "tiering",
		Title: fmt.Sprintf("Tiered prefix KV: %d agentic sessions x %d turns (branch %d) on DSR1-Qwen-1.5B/Orin, device cache swept with host tier off/on (%d host blocks, %.0f GB/s link)",
			sessions, turns, branch, hostBlocks, bw/1e9),
		Columns: []string{"device_blocks", "host_tier", "hit_rate_pct", "warm_p99_ttft_s",
			"p99_ttft_s", "demotions", "promotions", "host_hits", "restore_s"},
		Notes: []string{
			"hit rate is token-weighted (saved / looked-up prompt tokens); warm turns exclude each session's first request",
			"restore_s is total host-link transfer time charged into TTFT by promotions",
		},
	}
	type point struct{ off, on run }
	points := make([]point, len(deviceSizes))
	for i, dev := range deviceSizes {
		off, err := serve(dev, 0)
		if err != nil {
			return nil, err
		}
		on, err := serve(dev, hostBlocks)
		if err != nil {
			return nil, err
		}
		points[i] = point{off: off, on: on}
		for _, leg := range []struct {
			tier string
			r    run
		}{{"off", off}, {"on", on}} {
			sweep.AddRow(di(dev), leg.tier, f1(leg.r.sm.PrefixHitRate()*100),
				f3(warmTTFTP99(leg.r.sm)), f3(ttftPercentiles(leg.r.sm)[1]),
				di(leg.r.pm.Demotions), di(leg.r.pm.Promotions),
				di(leg.r.sm.HostHits), f3(leg.r.sm.RestoreSeconds))
		}
	}

	// Verify at the most starved point: the tier must buy hit rate and
	// warm tail TTFT, and across every sweep point it must leave the
	// generated stream untouched.
	starved := points[0]
	tokensSame := true
	for _, p := range points {
		if !sameTokens(p.off.sm, p.on.sm) {
			tokensSame = false
			break
		}
	}
	offHit, onHit := starved.off.sm.PrefixHitRate(), starved.on.sm.PrefixHitRate()
	offWarm, onWarm := warmTTFTP99(starved.off.sm), warmTTFTP99(starved.on.sm)
	verify := Table{
		ID:      "tiering-verify",
		Title:   fmt.Sprintf("Tiering verify at the starved point (%d device blocks): restore beats re-prefill, tokens never move", deviceSizes[0]),
		Columns: []string{"metric", "tier_off", "tier_on", "check"},
		Notes:   []string{"the host tier may only change timing: per-request prompt/output token counts must match the untiered run at every sweep point"},
	}
	verify.AddRow("hit_rate_pct", f1(offHit*100), f1(onHit*100), check(onHit > offHit))
	verify.AddRow("warm_p99_ttft_s", f3(offWarm), f3(onWarm), check(onWarm < offWarm))
	verify.AddRow("tokens_identical", di(totalTokens(starved.off.sm)), di(totalTokens(starved.on.sm)), check(tokensSame))
	return []Table{sweep, verify}, nil
}

// warmTTFTP99 is the p99 time-to-first-token (queue + restore +
// prefill) over the warm turns only — the requests whose history an
// earlier request already wrote, where retention (or restoration) can
// actually pay off.
func warmTTFTP99(m engine.ServeMetrics) float64 {
	var ttfts []float64
	for _, r := range m.Requests {
		if session.WarmTurn(r.ID) {
			ttfts = append(ttfts, r.QueueTime+r.RestoreTime+r.PrefillTime)
		}
	}
	if len(ttfts) == 0 {
		return 0
	}
	return stats.Percentiles(ttfts, 99)[0]
}

// sameTokens reports whether two runs completed the same requests with
// identical per-request token counts — the tier's "timing only" contract.
func sameTokens(a, b engine.ServeMetrics) bool {
	if len(a.Requests) != len(b.Requests) {
		return false
	}
	type shape struct{ prompt, output int }
	want := make(map[string]shape, len(a.Requests))
	for _, r := range a.Requests {
		want[r.ID] = shape{r.PromptTokens, r.OutputTokens}
	}
	for _, r := range b.Requests {
		s, ok := want[r.ID]
		if !ok || s != (shape{r.PromptTokens, r.OutputTokens}) {
			return false
		}
	}
	return true
}

func totalTokens(m engine.ServeMetrics) int {
	n := 0
	for _, r := range m.Requests {
		n += r.PromptTokens + r.OutputTokens
	}
	return n
}
