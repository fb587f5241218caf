package engine

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"

	"edgereasoning/internal/hw"
	"edgereasoning/internal/label"
	"edgereasoning/internal/model"
)

// TestServingMatchesServeSource is the resumable loop's equivalence
// property: an arrival-sorted stream driven through Open/Offer/AdvanceTo
// — advancing to random horizons between arrivals and to each exact
// arrival instant before offering it — must produce ServeMetrics
// deep-equal to ServeSource on a fresh engine, under FCFS and EDF, with
// and without a starved tiered prefix cache, with random stall and
// throttle windows. It pins the yield points (loop top, after a prefill)
// and the admission-grain rule. A third run offers the whole stream up
// front and closes at once: it never yields, promotes each offer as the
// clock reaches it and caps the grain while any is unpromoted, so it
// checks the yield points and the grain rule against a reference that
// does not share them.
//
// Half the seeds also advance past the last offer before closing, as a
// fleet does when it reads or crashes a replica it dispatches nothing
// more to. That pins the observer effect AdvanceTo documents: the open
// run caps the grain up to the furthest horizon, so the result must
// deep-equal the up-front run advanced to that horizon alone (the
// horizons before it change nothing), must serve the same requests as
// ServeSource, and on some seeds differs from it.
func TestServingMatchesServeSource(t *testing.T) {
	observed := 0
	for seed := uint64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x5e41))
		policy := SchedPolicy(rng.IntN(2))
		tiered := rng.IntN(2) == 1
		maxBatch := 1 + rng.IntN(6)
		stream := randomStream(rng, 10+rng.IntN(50), tiered)
		horizon := stream[len(stream)-1].Arrival + 5
		var fx *FaultInjection
		if rng.IntN(3) > 0 {
			fx = &FaultInjection{}
			for i := rng.IntN(4); i > 0; i-- {
				from := rng.Float64() * horizon
				fx.Stalls = append(fx.Stalls, StallWindow{From: from, To: from + rng.Float64()*3})
			}
			for i := rng.IntN(4); i > 0; i-- {
				from := rng.Float64() * horizon
				fx.Throttles = append(fx.Throttles, ThrottleWindow{From: from, To: from + rng.Float64()*10, Factor: 1 + rng.Float64()*2})
			}
		}
		opts := ServeOpts{Faults: fx}
		last := stream[len(stream)-1].Arrival
		past := 0.0 // the horizon past the last offer; 0 closes right after it
		if rng.IntN(2) == 0 {
			past = last + rng.Float64()*20
		}
		name := fmt.Sprintf("seed %d (%s, tiered %v, batch %d, faults %v, past %v)", seed, policy, tiered, maxBatch, fx != nil, past)

		ref := newServingEngine(t, tiered)
		want, err := ref.ServeSource(NewSliceSource(stream), maxBatch, policy, opts)
		if err != nil {
			t.Fatalf("%s: ServeSource: %v", name, err)
		}

		e := newServingEngine(t, tiered)
		sv := e.Open(maxBatch, policy, opts)
		prev := 0.0
		for _, tr := range stream {
			// A few random horizons short of the arrival, then the arrival
			// itself.
			for _, h := range append(randomHorizons(rng, prev, tr.Arrival), tr.Arrival) {
				if err := sv.AdvanceTo(h); err != nil {
					t.Fatalf("%s: AdvanceTo(%v): %v", name, h, err)
				}
			}
			sv.Offer(tr, tr.Arrival)
			prev = tr.Arrival
		}
		if past > 0 {
			for _, h := range append(randomHorizons(rng, last, past), past) {
				if err := sv.AdvanceTo(h); err != nil {
					t.Fatalf("%s: AdvanceTo(%v): %v", name, h, err)
				}
			}
		}
		got, err := sv.Close()
		if err != nil {
			t.Fatalf("%s: Close: %v", name, err)
		}

		upfront := newServingEngine(t, tiered)
		all := upfront.Open(maxBatch, policy, opts)
		for _, tr := range stream {
			all.Offer(tr, tr.Arrival)
		}
		if past > 0 {
			if err := all.AdvanceTo(past); err != nil {
				t.Fatalf("%s: up-front AdvanceTo: %v", name, err)
			}
		}
		ahead, err := all.Close()
		if err != nil {
			t.Fatalf("%s: up-front Close: %v", name, err)
		}
		if !reflect.DeepEqual(ahead, got) || upfront.Clock() != e.Clock() {
			t.Fatalf("%s: up-front run diverged from the resumable run:\n got %+v\nwant %+v", name, ahead, got)
		}

		if past > 0 {
			if got.Served != want.Served || got.TotalTokens != want.TotalTokens {
				t.Fatalf("%s: advancing past the last offer changed what was served: %d requests, %d tokens; want %d, %d",
					name, got.Served, got.TotalTokens, want.Served, want.TotalTokens)
			}
			if !reflect.DeepEqual(got, want) {
				observed++
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: resumable run diverged from ServeSource:\n got %+v\nwant %+v", name, got, want)
		}
		if e.Clock() != ref.Clock() || e.PrefixMetrics() != ref.PrefixMetrics() {
			t.Fatalf("%s: engine state diverged: clock %v vs %v, prefix %+v vs %+v",
				name, e.Clock(), ref.Clock(), e.PrefixMetrics(), ref.PrefixMetrics())
		}
	}
	if observed == 0 {
		t.Fatal("no advance past the last offer changed a result: the observer effect AdvanceTo documents is unpinned")
	}
}

// randomHorizons draws up to two sorted instants in [from, to).
func randomHorizons(rng *rand.Rand, from, to float64) []float64 {
	var hs []float64
	for i := rng.IntN(3); i > 0; i-- {
		hs = append(hs, from+rng.Float64()*(to-from))
	}
	sort.Float64s(hs)
	return hs
}

func newServingEngine(t *testing.T, tiered bool) *Engine {
	t.Helper()
	cfg := Config{Spec: model.MustLookup(model.Qwen25_1_5Bit), Device: hw.JetsonAGXOrin64GB()}
	if tiered {
		cfg.PrefixCache, cfg.DeviceBlocks, cfg.HostTierBlocks = true, 160, 256
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// randomStream draws an arrival-sorted stream with tied and near-tied
// arrivals, bursts and idle gaps, zero-output requests, optional deadlines, and token
// identities drawn from a few shared documents so prefixes recur.
func randomStream(rng *rand.Rand, n int, syms bool) []TimedRequest {
	docs := make([][]uint64, 4)
	for d := range docs {
		docs[d] = make([]uint64, 1024)
		for i := range docs[d] {
			docs[d][i] = uint64(d)<<32 | uint64(i)
		}
	}
	out := make([]TimedRequest, n)
	at := 0.0
	for i := range out {
		switch rng.IntN(5) {
		case 0: // tie with the previous arrival
		case 1: // a near-tie, inside the loop's 1e-12 promotion tolerance
			at += 5e-13
		case 2:
			at += rng.Float64() * 0.05
		default:
			at += rng.ExpFloat64() * 2
		}
		prompt, output := 16+rng.IntN(600), rng.IntN(300)
		if rng.IntN(10) == 0 {
			output = 0
		}
		tr := TimedRequest{Request: Request{ID: label.Question(i), PromptTokens: prompt, OutputTokens: output}, Arrival: at}
		if rng.IntN(2) == 0 {
			tr.Deadline = at + 1 + rng.Float64()*20
		}
		if syms {
			doc := docs[rng.IntN(len(docs))]
			tr.PromptSyms, tr.OutputSyms = doc[:prompt], doc[prompt:prompt+output]
		}
		out[i] = tr
	}
	return out
}
