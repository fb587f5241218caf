package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"edgereasoning/internal/label"
)

func TestLaneAllocatorNeverOverlaps(t *testing.T) {
	var la LaneAllocator
	type placed struct {
		lane       int
		start, end float64
	}
	// Deliberately out of start order — the allocator must stay safe for
	// any record order.
	spans := [][2]float64{{0, 10}, {2, 4}, {10, 12}, {4, 6}, {1, 2}, {12, 20}, {6, 9}}
	var got []placed
	for _, s := range spans {
		got = append(got, placed{la.Lane(s[0], s[1]), s[0], s[1]})
	}
	for i, a := range got {
		for _, b := range got[i+1:] {
			if a.lane != b.lane {
				continue
			}
			if a.start < b.end && b.start < a.end {
				t.Fatalf("lane %d: [%.0f,%.0f] overlaps [%.0f,%.0f]", a.lane, a.start, a.end, b.start, b.end)
			}
		}
	}
	// Sequential spans reuse lane 0.
	var seq LaneAllocator
	for i := 0; i < 5; i++ {
		if l := seq.Lane(float64(i), float64(i+1)); l != 0 {
			t.Fatalf("sequential span %d got lane %d, want 0", i, l)
		}
	}
}

func TestTrackRingOverflow(t *testing.T) {
	tr := New(Config{SpanCap: 4}).Track("r0")
	for i := 0; i < 7; i++ {
		tr.Record(Span{ID: label.Question(i), Start: float64(i), End: float64(i) + 0.5})
	}
	if tr.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", tr.Dropped())
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(spans))
	}
	// Record order preserved: the oldest retained span first.
	for i, s := range spans {
		if want := float64(i + 3); s.Start != want {
			t.Fatalf("span %d start = %v, want %v", i, s.Start, want)
		}
	}
}

func TestSeriesThinningAndCounter(t *testing.T) {
	tra := New(Config{})
	g := tra.GaugeSeries("depth", "")
	const n = 3*seriesCap + 7
	for i := 0; i < n; i++ {
		g.Sample(float64(i), float64(i))
	}
	pts := g.Points()
	if len(pts) > seriesCap {
		t.Fatalf("series kept %d points, cap %d", len(pts), seriesCap)
	}
	last, ok := g.Last()
	if !ok || last.V != n-1 {
		t.Fatalf("last = %+v, want V=%d", last, n-1)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].T <= pts[i-1].T {
			t.Fatalf("thinned series not strictly increasing in time: %v", pts)
		}
	}
	c := tra.CounterFor("opens", "")
	c.Add(1, 1)
	c.Add(2, 1)
	c.Add(5, 3)
	if last, _ := c.Last(); last.V != 5 {
		t.Fatalf("counter last = %v, want cumulative 5", last.V)
	}
}

// buildTrace assembles a small two-replica faulted trace by hand: one
// clean request on r0, one crash-aborted-then-retried request served by
// r1, with ingress queue spans and nested phase spans.
func buildTrace() *Trace {
	tra := New(Config{})
	ing := tra.Track("ingress")
	fl := tra.Track("faults")
	r0 := tra.Track("r0")
	r1 := tra.Track("r1")
	reqA, reqB := label.Question(0), label.Question(1)

	// Request A: arrives 0, dispatched 0, served on r0 over [0, 3].
	ing.Record(Span{ID: reqA, Kind: KindQueue, Lane: 0, Start: 0, End: 0})
	r0.Record(Span{ID: reqA, Kind: KindRequest, Lane: 0, Start: 0, End: 3, Wait: 0, Tokens: 300, Cached: 0})
	r0.Record(Span{ID: reqA, Kind: KindPrefill, Lane: 0, Start: 0, End: 1, Tokens: 200})
	r0.Record(Span{ID: reqA, Kind: KindDecode, Lane: 0, Start: 1, End: 3, Tokens: 100})

	// Request B: arrives 1, dispatched 2 (queue 1s) to r1, where the
	// attempt prefills and decodes for 1.5s before r1 crashes at 4; retry
	// waits [4, 5], re-dispatched at 6 (queue 1s), admitted 6.5 (replica
	// wait 0.5), restored+prefilled, finishes at 10.
	flow := tra.NextFlow()
	ing.Record(Span{ID: reqB, Kind: KindQueue, Lane: 0, Start: 1, End: 2})
	r1.Record(Span{ID: reqB, Kind: KindPrefill, Lane: 0, Start: 2, End: 2.5, Tokens: 260})
	r1.Record(Span{ID: reqB, Kind: KindDecode, Lane: 0, Start: 2.5, End: 3.5, Tokens: 16})
	fl.Record(Span{ID: reqB, Kind: KindAborted, Lane: 0, Start: 2, End: 4, Cause: "r1", Lost: 1.5, Flow: flow, FlowStart: true})
	fl.Record(Span{Kind: KindCrash, Cause: "r1", Lane: 1, Start: 4, End: 4})
	ing.Record(Span{ID: reqB, Kind: KindRetryWait, Lane: 1, Start: 4, End: 5, Attempt: 1})
	ing.Record(Span{ID: reqB, Kind: KindQueue, Lane: 0, Start: 5, End: 6, Attempt: 1, Flow: flow})
	r1.Record(Span{ID: reqB, Kind: KindRequest, Lane: 0, Start: 6.5, End: 10, Wait: 0.5, Tokens: 260, Cached: 64})
	r1.Record(Span{ID: reqB, Kind: KindStall, Lane: 0, Start: 6.5, End: 7})
	r1.Record(Span{ID: reqB, Kind: KindRestore, Lane: 0, Start: 7, End: 7.25})
	r1.Record(Span{ID: reqB, Kind: KindPrefill, Lane: 0, Start: 7.25, End: 8, Tokens: 196, Cached: 64})
	r1.Record(Span{ID: reqB, Kind: KindDecode, Lane: 0, Start: 8, End: 10, Tokens: 60})

	tra.GaugeSeries("kv_used_blocks", "r0").Sample(1, 12)
	tra.GaugeSeries("kv_used_blocks", "r1").Sample(8, 20)
	tra.CounterFor("breaker_opens", "").Add(4, 1)
	tra.HistogramFor("ttft_seconds", "r0", TTFTBuckets).Observe(1)
	tra.HistogramFor("ttft_seconds", "r1", TTFTBuckets).Observe(1.5)
	return tra
}

func TestValidateSpansAcceptsWellFormed(t *testing.T) {
	if err := ValidateSpans(buildTrace()); err != nil {
		t.Fatalf("ValidateSpans: %v", err)
	}
}

func TestValidateSpansRejectsOverlapAndInversion(t *testing.T) {
	tra := New(Config{})
	tr := tra.Track("r0")
	tr.Record(Span{ID: label.Question(0), Kind: KindRequest, Lane: 0, Start: 0, End: 2})
	tr.Record(Span{ID: label.Question(1), Kind: KindRequest, Lane: 0, Start: 1, End: 3})
	if err := ValidateSpans(tra); err == nil {
		t.Fatal("overlapping siblings on one lane not rejected")
	}
	tra2 := New(Config{})
	tra2.Track("r0").Record(Span{ID: label.Question(2), Kind: KindDecode, Start: 5, End: 4})
	if err := ValidateSpans(tra2); err == nil {
		t.Fatal("span ending before its start not rejected")
	}
}

func TestChromeTraceExportRoundTrip(t *testing.T) {
	tra := buildTrace()
	var buf bytes.Buffer
	if err := tra.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("exported trace fails validation: %v", err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	counts := map[string]int{}
	labelled := map[string]int{} // spans per rendered request label
	for _, ev := range doc.TraceEvents {
		counts[ev.Ph]++
		if req, ok := ev.Args["req"].(string); ok {
			labelled[req]++
			if ev.Cat == KindRequest && ev.Name != req {
				t.Errorf("request span named %q, want its label %q", ev.Name, req)
			}
		}
	}
	if len(labelled) != 2 || labelled["q0"] != 4 || labelled["q1"] != 11 {
		t.Fatalf("spans per request label %v, want q0:4 q1:11", labelled)
	}
	if counts["s"] != 1 || counts["f"] != 1 {
		t.Fatalf("flow events s=%d f=%d, want one of each", counts["s"], counts["f"])
	}
	if counts["C"] == 0 {
		t.Fatal("no counter events exported")
	}
	if counts["i"] == 0 {
		t.Fatal("zero-duration crash marker not exported as an instant")
	}
	// Determinism: a second export is byte-identical.
	var buf2 bytes.Buffer
	if err := tra.WriteChromeTrace(&buf2); err != nil {
		t.Fatalf("second export: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("export is not deterministic")
	}
}

func TestValidateChromeTraceRejectsMalformed(t *testing.T) {
	if err := ValidateChromeTrace([]byte(`{"traceEvents": []}`)); err == nil {
		t.Fatal("empty trace accepted")
	}
	// Every malformed document below names pid 1 so it reaches the check
	// under test instead of failing the metadata requirement first.
	const meta = `{"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"p"}}`
	for name, events := range map[string]string{
		"overlapping non-nested spans": `{"name":"a","ph":"X","ts":0,"dur":10,"pid":1,"tid":1},
			{"name":"b","ph":"X","ts":5,"dur":10,"pid":1,"tid":1}`,
		"non-monotone timestamps": `{"name":"a","ph":"X","ts":10,"dur":1,"pid":1,"tid":1},
			{"name":"b","ph":"X","ts":0,"dur":1,"pid":1,"tid":1}`,
		"negative timestamp":        `{"name":"a","ph":"X","ts":-5,"dur":1,"pid":1,"tid":1}`,
		"unknown phase":             `{"name":"a","ph":"Z","ts":0,"pid":1,"tid":1}`,
		"flow finish without start": `{"name":"retry","ph":"f","bp":"e","id":"9","ts":1,"pid":1,"tid":1}`,
		"flow finish before its start": `{"name":"retry","ph":"f","bp":"e","id":"9","ts":1,"pid":1,"tid":1},
			{"name":"retry","ph":"s","id":"9","ts":5,"pid":1,"tid":1}`,
		"event on unnamed pid": `{"name":"a","ph":"X","ts":0,"dur":1,"pid":7,"tid":1}`,
	} {
		doc := `{"traceEvents":[` + meta + `,` + events + `]}`
		if err := ValidateChromeTrace([]byte(doc)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestPrometheusExportRoundTrip(t *testing.T) {
	tra := buildTrace()
	var buf bytes.Buffer
	if err := tra.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()
	if err := ValidatePrometheus(buf.Bytes()); err != nil {
		t.Fatalf("exported snapshot fails validation: %v", err)
	}
	for _, want := range []string{
		`edgereasoning_kv_used_blocks{replica="r0"} 12`,
		`edgereasoning_breaker_opens_total 1`,
		`edgereasoning_ttft_seconds_count 2`,
		`# TYPE edgereasoning_ttft_seconds histogram`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("snapshot missing %q:\n%s", want, out)
		}
	}
	if err := ValidatePrometheus([]byte("not a metric line at all\n")); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
}

func TestBreakdownTilesE2E(t *testing.T) {
	tra := buildTrace()
	rows := tra.Breakdown()
	if len(rows) != 2 {
		t.Fatalf("breakdown has %d rows, want 2", len(rows))
	}
	a, b := rows[0], rows[1]
	if a.ID != label.Question(0) || b.ID != label.Question(1) {
		t.Fatalf("rows not sorted by arrival: %s, %s", a.ID, b.ID)
	}
	if a.E2E() != 3 || a.Prefill != 1 || a.Decode != 2 || a.Attempts != 0 {
		t.Fatalf("request A decomposition wrong: %+v", a)
	}
	if b.Arrival != 1 || b.Finish != 10 || b.Attempts != 1 || b.Track != "r1" {
		t.Fatalf("request B identity wrong: %+v", b)
	}
	if b.Ingress != 2 || b.RetryWait != 1 || b.AbortedWall != 2 || b.ReplicaWait != 0.5 {
		t.Fatalf("request B wait phases wrong: %+v", b)
	}
	// The aborted attempt's replica phases are inside its abort span, not
	// the served attempt's phases.
	if b.Stall != 0.5 || b.Restore != 0.25 || b.Prefill != 0.75 || b.Decode != 2 || b.CachedTok != 64 {
		t.Fatalf("request B serve phases wrong: %+v", b)
	}
	for _, r := range rows {
		if res := math.Abs(r.Residual()); res > 1e-9 {
			t.Fatalf("request %s phases do not tile E2E: residual %g (%+v)", r.ID, res, r)
		}
		if r.Gap < -1e-9 {
			t.Fatalf("request %s has negative gap %g", r.ID, r.Gap)
		}
	}
}

func TestHistogramMergeAcrossTracks(t *testing.T) {
	tra := buildTrace()
	hs := tra.Histograms()
	var found bool
	for _, mh := range hs {
		if mh.Name != "ttft_seconds" {
			continue
		}
		found = true
		if mh.Hist.Count() != 2 {
			t.Fatalf("merged count = %d, want 2", mh.Hist.Count())
		}
		if len(mh.Labels) != 2 {
			t.Fatalf("labels = %v, want r0 and r1", mh.Labels)
		}
	}
	if !found {
		t.Fatal("ttft_seconds not in merged histograms")
	}
}
