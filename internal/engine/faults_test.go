package engine

import (
	"math"
	"testing"

	"edgereasoning/internal/label"
	"edgereasoning/internal/model"
)

func TestStallEndChainsWindows(t *testing.T) {
	fx := (&FaultInjection{Stalls: []StallWindow{{From: 3, To: 6}, {From: 1, To: 3}, {From: 10, To: 11}}}).Compile()
	cases := []struct{ in, want float64 }{
		{0, 0},   // before every window
		{1, 6},   // chains through the back-to-back windows
		{2.5, 6}, // mid-window
		{6, 6},   // window end is outside [From, To)
		{8, 8},   // gap between windows
		{10.5, 11},
	}
	for _, tc := range cases {
		if got := fx.StallEnd(tc.in); got != tc.want {
			t.Errorf("StallEnd(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestThrottleAtCompounds(t *testing.T) {
	fx := (&FaultInjection{Throttles: []ThrottleWindow{
		{From: 0, To: 10, Factor: 2},
		{From: 5, To: 10, Factor: 3},
	}}).Compile()
	if got := fx.ThrottleAt(1); got != 2 {
		t.Errorf("ThrottleAt(1) = %v, want 2", got)
	}
	if got := fx.ThrottleAt(7); got != 6 {
		t.Errorf("ThrottleAt(7) = %v, want 6 (overlap compounds)", got)
	}
	if got := fx.ThrottleAt(10); got != 1 {
		t.Errorf("ThrottleAt(10) = %v, want 1 (window end exclusive)", got)
	}
}

// TestFinishAfterIntegratesWindows pins the continuous fault-window
// integration routers estimate with: work runs Factor× slower inside
// throttle windows, not at all inside stall windows and at full speed
// outside, compounding overlaps like the scheduler's decode stretch.
func TestFinishAfterIntegratesWindows(t *testing.T) {
	throttles := []ThrottleWindow{{From: 10, To: 20, Factor: 2}}
	fx := (&FaultInjection{Throttles: throttles}).Compile()
	cases := []struct {
		start, work, want float64
	}{
		{0, 5, 5},   // entirely before the window: full speed
		{0, 12, 14}, // 10 work to the window edge, 2 more at 2x
		{12, 4, 20}, // exactly fills the remaining window at 2x
		{12, 6, 22}, // 4 work drains the window, 2 run free after it
		{25, 3, 28}, // entirely after the window: full speed
		{10, 0, 10}, // zero work is free
	}
	for _, c := range cases {
		if got := fx.FinishAfter(c.start, c.work); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("FinishAfter(%v, %v) = %v, want %v", c.start, c.work, got, c.want)
		}
	}
	over := (&FaultInjection{Throttles: []ThrottleWindow{
		{From: 0, To: 10, Factor: 2}, {From: 5, To: 10, Factor: 2},
	}}).Compile()
	if got := over.ThrottleAt(6); got != 4 {
		t.Errorf("overlapping windows must compound: ThrottleAt(6) = %v, want 4", got)
	}
	if got := over.FinishAfter(5, 1); math.Abs(got-9) > 1e-9 {
		t.Errorf("FinishAfter(5, 1) under compounded 4x = %v, want 9", got)
	}

	stalled := (&FaultInjection{Stalls: []StallWindow{{From: 10, To: 12}, {From: 30, To: 31}},
		Throttles: throttles}).Compile()
	for _, c := range []struct{ start, work, want float64 }{
		{0, 12, 16},  // 10 work to the stall, frozen to 12, 2 more at 2x
		{11, 1, 14},  // starts frozen: 1 work at 2x from the stall's end
		{25, 10, 36}, // 5 work, frozen over [30, 31), 5 more
	} {
		if got := stalled.FinishAfter(c.start, c.work); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("stalled FinishAfter(%v, %v) = %v, want %v", c.start, c.work, got, c.want)
		}
	}

	// Without windows the integration is the plain sum, bit for bit.
	start, work := 0.1, 0.2
	none := (&FaultInjection{}).Compile()
	if got := none.FinishAfter(start, work); got != start+work {
		t.Errorf("windowless FinishAfter(%v, %v) = %v, want %v", start, work, got, start+work)
	}
}

// TestServeFaultsOutsideRunAreInert pins the zero-perturbation contract:
// an injection whose windows never intersect the run leaves every metric
// identical to an undisturbed serve.
func TestServeFaultsOutsideRunAreInert(t *testing.T) {
	stream := []TimedRequest{
		timed(0, 0, 128, 60, 0),
		timed(1, 0.5, 96, 40, 0),
		timed(2, 2, 64, 80, 0),
	}
	base := newOrinEngine(t, model.DSR1Qwen1_5B)
	want, err := base.Serve(stream, 2, FCFS)
	if err != nil {
		t.Fatal(err)
	}
	faulted := newOrinEngine(t, model.DSR1Qwen1_5B)
	fx := &FaultInjection{
		Stalls:    []StallWindow{{From: 1e9, To: 1e9 + 5}},
		Throttles: []ThrottleWindow{{From: 1e9, To: 1e9 + 5, Factor: 4}},
	}
	src := NewSliceSource(stream)
	got, err := faulted.ServeSource(src, 2, FCFS, ServeOpts{Faults: fx})
	if err != nil {
		t.Fatal(err)
	}
	if base.Clock() != faulted.Clock() || got.TotalEnergy != want.TotalEnergy ||
		got.MeanLatency != want.MeanLatency || got.Events != want.Events {
		t.Fatalf("out-of-run faults perturbed the serve:\n got %+v\nwant %+v", got, want)
	}
}

// TestServeStallDelaysStart pins stall semantics: work that would start
// inside the window starts at its end, and the wait lands in the
// stalled request's latency.
func TestServeStallDelaysStart(t *testing.T) {
	stream := []TimedRequest{timed(0, 0, 64, 50, 0)}
	base := newOrinEngine(t, model.DSR1Qwen1_5B)
	want, err := base.Serve(stream, 1, FCFS)
	if err != nil {
		t.Fatal(err)
	}
	const stall = 5.0
	faulted := newOrinEngine(t, model.DSR1Qwen1_5B)
	fx := &FaultInjection{Stalls: []StallWindow{{From: 0, To: stall}}}
	got, err := faulted.ServeSource(NewSliceSource(stream), 1, FCFS, ServeOpts{Faults: fx})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Latencies[0]-(want.Latencies[0]+stall)) > 1e-9 {
		t.Errorf("stalled latency %.6f, want %.6f (+%v s window)", got.Latencies[0], want.Latencies[0]+stall, stall)
	}
	if got.TotalEnergy != want.TotalEnergy {
		t.Errorf("stall changed energy: %v vs %v (no work happens in a stall)", got.TotalEnergy, want.TotalEnergy)
	}
}

// TestServeThrottleStretchesDecodeNotEnergy pins throttle semantics: a
// factor-2 window covering the run doubles decode time while prefill
// time and total energy stay exactly as measured unthrottled.
func TestServeThrottleStretchesDecodeNotEnergy(t *testing.T) {
	stream := []TimedRequest{timed(0, 0, 64, 80, 0)}
	base := newOrinEngine(t, model.DSR1Qwen1_5B)
	want, err := base.Serve(stream, 1, FCFS)
	if err != nil {
		t.Fatal(err)
	}
	faulted := newOrinEngine(t, model.DSR1Qwen1_5B)
	fx := &FaultInjection{Throttles: []ThrottleWindow{{From: 0, To: 1e9, Factor: 2}}}
	got, err := faulted.ServeSource(NewSliceSource(stream), 1, FCFS, ServeOpts{Faults: fx})
	if err != nil {
		t.Fatal(err)
	}
	g, w := got.Requests[0], want.Requests[0]
	if math.Abs(g.DecodeTime-2*w.DecodeTime) > 1e-9 {
		t.Errorf("throttled decode %.6f, want %.6f (2x)", g.DecodeTime, 2*w.DecodeTime)
	}
	if g.PrefillTime != w.PrefillTime {
		t.Errorf("throttle touched prefill: %.6f vs %.6f", g.PrefillTime, w.PrefillTime)
	}
	if got.TotalEnergy != want.TotalEnergy {
		t.Errorf("throttled energy %.6f, want %.6f (same work, longer window)", got.TotalEnergy, want.TotalEnergy)
	}
}

// TestServeCrashWipesPrefixAtCrashInstant pins the crash's cache side:
// a crash on an idle engine wipes the prefix index at its instant, so
// the next turn over pre-crash history gets no hit, and the wiped cache
// rebuilds afterwards.
func TestServeCrashWipesPrefixAtCrashInstant(t *testing.T) {
	e := newPrefixEngine(t, model.DSR1Qwen1_5B)
	history := make([]uint64, 256)
	for i := range history {
		history[i] = uint64(1000 + i)
	}
	warm, err := e.Serve([]TimedRequest{sessTimed(label.Think(0, 1), 0, history, 128, 64)}, 1, FCFS)
	if err != nil {
		t.Fatal(err)
	}
	if warm.PrefixLookups != 1 {
		t.Fatalf("warm-up consulted the cache %d times, want 1", warm.PrefixLookups)
	}

	// Same prefix again, arriving just after a crash on the idle engine.
	crash := e.Clock() + 0.5
	next := sessTimed(label.Think(0, 2), e.Clock()+1, history, 192, 64)
	fx := &FaultInjection{Crashes: []float64{crash}}
	m, err := e.ServeSource(NewSliceSource([]TimedRequest{next}), 1, FCFS, ServeOpts{Faults: fx})
	if err != nil {
		t.Fatal(err)
	}
	if m.Served != 1 || m.SavedPrefillTokens != 0 {
		t.Errorf("post-crash request served %d, saved %d prefill tokens, want 1 and 0 (cache wiped)",
			m.Served, m.SavedPrefillTokens)
	}
	if pm := e.PrefixMetrics(); pm.CrashWipes != 1 || pm.CrashDropped == 0 {
		t.Errorf("prefix metrics wipes %d dropped %d, want 1 wipe with drops", pm.CrashWipes, pm.CrashDropped)
	}

	// The wiped cache rebuilds: the next turn over the same history hits.
	again, err := e.Serve([]TimedRequest{sessTimed(label.Think(0, 3), e.Clock()+1, history, 192, 32)}, 1, FCFS)
	if err != nil {
		t.Fatal(err)
	}
	if again.SavedPrefillTokens == 0 {
		t.Error("post-crash traffic must rebuild the cache and hit again")
	}
}

// TestServingCrashAbortsWhatTheEngineHolds drives an open run into a
// crash mid-decode: the active set and the ready queue are aborted —
// active requests with the service they had received, queued ones with
// none — no event straddles the crash, every KV block is freed, and the
// run serves later offers normally.
func TestServingCrashAbortsWhatTheEngineHolds(t *testing.T) {
	e := newOrinEngine(t, model.Qwen25_1_5Bit)
	probe := newOrinEngine(t, model.Qwen25_1_5Bit)
	one, err := probe.Generate(Request{ID: label.Probe(), PromptTokens: 128, OutputTokens: 256})
	if err != nil {
		t.Fatal(err)
	}
	crash := one.TotalTime() / 2 // mid-decode for the first request
	sv := e.Open(1, FCFS, ServeOpts{Faults: &FaultInjection{Crashes: []float64{crash}}})
	for i := 0; i < 3; i++ {
		sv.Offer(TimedRequest{Request: Request{ID: label.Question(i), PromptTokens: 128, OutputTokens: 256}}, 0)
	}
	if err := sv.AdvanceTo(crash / 2); err != nil {
		t.Fatal(err)
	}
	if got := sv.Aborted(); len(got) != 0 {
		t.Fatalf("%d aborts before the crash instant", len(got))
	}
	if err := sv.AdvanceTo(crash); err != nil {
		t.Fatal(err)
	}
	got := sv.Aborted()
	if len(got) != 3 || got[0].ID != label.Question(0) || got[1].ID != label.Question(1) || got[2].ID != label.Question(2) {
		t.Fatalf("aborted %+v, want r0 (active) then r1, r2 (queued)", got)
	}
	if math.Abs(got[0].Lost-crash) > 1e-9 || got[1].Lost != 0 || got[2].Lost != 0 {
		t.Errorf("lost work %v/%v/%v, want %v/0/0", got[0].Lost, got[1].Lost, got[2].Lost, crash)
	}
	if e.Clock() != crash {
		t.Errorf("clock %v after the crash, want it stopped at %v", e.Clock(), crash)
	}
	if used := e.CacheStats().UsedBlocks; used != 0 {
		t.Errorf("%d KV blocks still held after the crash", used)
	}
	sv.Offer(TimedRequest{Request: Request{ID: label.Question(3), PromptTokens: 128, OutputTokens: 256}, Arrival: 1}, crash+1)
	m, err := sv.Close()
	if err != nil {
		t.Fatal(err)
	}
	if m.Served != 1 || m.Requests[0].ID != label.Question(3) {
		t.Fatalf("served %d %+v, want only the post-crash offer", m.Served, m.Requests)
	}
	if want := e.Clock() - 1; math.Abs(m.Latencies[0]-want) > 1e-9 {
		t.Errorf("latency %v, want %v (counted from the true arrival)", m.Latencies[0], want)
	}
}
