package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// renderResults renders every table from every successful result, in
// stream order, exactly as the CLI does.
func renderResults(t *testing.T, results []Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
		for i := range r.Tables {
			if err := r.Tables[i].Render(&buf); err != nil {
				t.Fatalf("%s: render: %v", r.ID, err)
			}
		}
	}
	return buf.Bytes()
}

// TestParallelReportByteIdentical runs the full suite twice each at
// parallelism 1 and parallelism 8 and asserts all four rendered reports
// match byte for byte: output must depend only on the requested ID
// order and the seed — never on completion order or scheduling luck.
// Run under -race this also exercises the pool for data races across
// all drivers.
func TestParallelReportByteIdentical(t *testing.T) {
	ids := IDs()
	opts := Options{Seed: 7, Quick: true}
	runs := []struct {
		name        string
		parallelism int
	}{
		{"sequential-1st", 1},
		{"sequential-2nd", 1},
		{"parallel-1st", 8},
		{"parallel-2nd", 8},
	}
	var golden []byte
	for _, r := range runs {
		results := RunAll(context.Background(), ids, opts, RunnerOptions{Parallelism: r.parallelism})
		if len(results) != len(ids) {
			t.Fatalf("%s: %d results, want %d", r.name, len(results), len(ids))
		}
		out := renderResults(t, results)
		if golden == nil {
			golden = out
			continue
		}
		if !bytes.Equal(out, golden) {
			t.Errorf("%s report differs from the first run (%d vs %d bytes)", r.name, len(out), len(golden))
		}
	}
}

// fakeRegistry builds a lookup over synthetic drivers for pool tests.
func fakeRegistry(drivers map[string]Driver) func(string) (Driver, bool) {
	return func(id string) (Driver, bool) {
		d, ok := drivers[id]
		return d, ok
	}
}

// tableFor is a minimal single-row artifact for synthetic drivers.
func tableFor(id string, opts Options) []Table {
	return []Table{{
		ID:      id,
		Title:   "synthetic",
		Columns: []string{"seed"},
		Rows:    [][]string{{fmt.Sprintf("%d", opts.Seed)}},
	}}
}

func TestStreamPreservesRequestOrder(t *testing.T) {
	// Early drivers sleep longer than later ones, so completion order is
	// the reverse of request order.
	drivers := map[string]Driver{}
	ids := make([]string, 6)
	for i := range ids {
		id := fmt.Sprintf("d%d", i)
		ids[i] = id
		delay := time.Duration(len(ids)-i) * 5 * time.Millisecond
		drivers[id] = func(o Options) ([]Table, error) {
			time.Sleep(delay)
			return tableFor(id, o), nil
		}
	}
	cfg := RunnerOptions{Parallelism: len(ids), lookup: fakeRegistry(drivers)}
	var got []string
	for r := range Stream(context.Background(), ids, Options{Seed: 1}, cfg) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
		got = append(got, r.ID)
	}
	if strings.Join(got, ",") != strings.Join(ids, ",") {
		t.Errorf("stream order %v, want %v", got, ids)
	}
}

func TestRunAllFailSoft(t *testing.T) {
	boom := errors.New("boom")
	drivers := map[string]Driver{
		"ok1":    func(o Options) ([]Table, error) { return tableFor("ok1", o), nil },
		"broken": func(o Options) ([]Table, error) { return nil, boom },
		"panics": func(o Options) ([]Table, error) { panic("kaboom") },
		"ok2":    func(o Options) ([]Table, error) { return tableFor("ok2", o), nil },
	}
	ids := []string{"ok1", "broken", "panics", "missing", "ok2"}
	cfg := RunnerOptions{Parallelism: 2, lookup: fakeRegistry(drivers)}
	results := RunAll(context.Background(), ids, Options{Seed: 3}, cfg)
	if len(results) != len(ids) {
		t.Fatalf("got %d results, want %d", len(results), len(ids))
	}
	for i, r := range results {
		if r.ID != ids[i] {
			t.Errorf("result %d is %s, want %s", i, r.ID, ids[i])
		}
	}
	if !errors.Is(results[1].Err, boom) {
		t.Errorf("broken driver error = %v, want %v", results[1].Err, boom)
	}
	if results[2].Err == nil || !strings.Contains(results[2].Err.Error(), "panicked") {
		t.Errorf("panicking driver error = %v, want panic report", results[2].Err)
	}
	if results[3].Err == nil || !strings.Contains(results[3].Err.Error(), "unknown") {
		t.Errorf("missing driver error = %v, want unknown-experiment report", results[3].Err)
	}
	for _, i := range []int{0, 4} {
		if results[i].Err != nil {
			t.Errorf("%s must survive neighbours failing: %v", results[i].ID, results[i].Err)
		}
		if results[i].TableCount() != 1 {
			t.Errorf("%s table count = %d, want 1", results[i].ID, results[i].TableCount())
		}
	}
}

// TestCancellationStopsPromptly cancels the context while a slow driver
// is in flight and asserts the pool returns quickly with the completed
// prefix delivered and the rest marked cancelled.
func TestCancellationStopsPromptly(t *testing.T) {
	release := make(chan struct{})
	drivers := map[string]Driver{
		"fast": func(o Options) ([]Table, error) { return tableFor("fast", o), nil },
		"slow": func(o Options) ([]Table, error) {
			<-release
			return tableFor("slow", o), nil
		},
	}
	defer close(release)
	ids := []string{"fast", "slow", "fast", "slow"}
	ctx, cancel := context.WithCancel(context.Background())
	cfg := RunnerOptions{Parallelism: 1, lookup: fakeRegistry(drivers)}

	ch := Stream(ctx, ids, Options{Seed: 1}, cfg)
	first := <-ch
	if first.Err != nil || first.ID != "fast" {
		t.Fatalf("first result = %+v, want clean fast", first)
	}
	cancel()

	done := make(chan []Result, 1)
	go func() { done <- collect(ch, len(ids)-1) }()
	var rest []Result
	select {
	case rest = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("pool did not stop promptly after cancellation")
	}
	if len(rest) != len(ids)-1 {
		t.Fatalf("got %d trailing results, want %d", len(rest), len(ids)-1)
	}
	for _, r := range rest {
		if r.Err == nil || !errors.Is(r.Err, context.Canceled) {
			t.Errorf("%s after cancel: err = %v, want context.Canceled", r.ID, r.Err)
		}
	}
}

// TestCancellationNoGoroutineLeak cancels mid-suite and asserts two
// things the CLI depends on: every requested ID still yields exactly one
// fail-soft Result (no aborts, no holes), and — once the abandoned
// drivers are released — the pool's goroutines all drain away.
func TestCancellationNoGoroutineLeak(t *testing.T) {
	release := make(chan struct{})
	drivers := map[string]Driver{
		"ok": func(o Options) ([]Table, error) { return tableFor("ok", o), nil },
		"block": func(o Options) ([]Table, error) {
			<-release
			return tableFor("block", o), nil
		},
	}
	ids := []string{"ok", "block", "block", "ok", "block", "ok"}
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	cfg := RunnerOptions{Parallelism: 3, lookup: fakeRegistry(drivers)}
	ch := Stream(ctx, ids, Options{Seed: 1}, cfg)
	first := <-ch
	if first.ID != "ok" || first.Err != nil {
		t.Fatalf("first result = %+v, want clean ok", first)
	}
	cancel()
	results := append([]Result{first}, collect(ch, len(ids)-1)...)

	if len(results) != len(ids) {
		t.Fatalf("got %d results, want %d (fail-soft: one per requested ID)", len(results), len(ids))
	}
	for i, r := range results {
		if r.ID != ids[i] {
			t.Errorf("result %d is %s, want %s", i, r.ID, ids[i])
		}
		if r.Err != nil && !errors.Is(r.Err, context.Canceled) {
			t.Errorf("%s: err = %v, want nil or context.Canceled", r.ID, r.Err)
		}
	}

	// Unblock the abandoned driver goroutines; the pool must then return
	// to its pre-Stream goroutine census. Poll because their final sends
	// land on buffered channels asynchronously.
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // nudge finalization so the count settles
		if runtime.NumGoroutine() <= baseline+1 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestPerDriverTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	drivers := map[string]Driver{
		"stuck": func(o Options) ([]Table, error) { <-release; return nil, nil },
		"fine":  func(o Options) ([]Table, error) { return tableFor("fine", o), nil },
	}
	cfg := RunnerOptions{
		Parallelism: 2,
		Timeout:     10 * time.Millisecond,
		lookup:      fakeRegistry(drivers),
	}
	results := RunAll(context.Background(), []string{"stuck", "fine"}, Options{}, cfg)
	if results[0].Err == nil || !strings.Contains(results[0].Err.Error(), "timeout") {
		t.Errorf("stuck driver error = %v, want timeout", results[0].Err)
	}
	if results[1].Err != nil {
		t.Errorf("fine driver must not time out: %v", results[1].Err)
	}
}

func TestRunSweep(t *testing.T) {
	drivers := map[string]Driver{
		"sweepme": func(o Options) ([]Table, error) {
			if !o.Quick {
				return nil, errors.New("base options not threaded through")
			}
			return tableFor("sweepme", o), nil
		},
	}
	seeds := []uint64{11, 22, 33, 44}
	cfg := RunnerOptions{Parallelism: 4, lookup: fakeRegistry(drivers)}
	results := RunSweep(context.Background(), "sweepme", seeds, Options{Quick: true}, cfg)
	if len(results) != len(seeds) {
		t.Fatalf("got %d results, want %d", len(results), len(seeds))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("seed %d: %v", seeds[i], r.Err)
		}
		if r.Seed != seeds[i] {
			t.Errorf("result %d seed = %d, want %d (seed order must be preserved)", i, r.Seed, seeds[i])
		}
		if got := r.Tables[0].Rows[0][0]; got != fmt.Sprintf("%d", seeds[i]) {
			t.Errorf("result %d ran with seed %s, want %d", i, got, seeds[i])
		}
	}
}

// TestSweepStochasticDriverVariance runs a real stochastic driver across
// seeds and checks the sweep machinery against the suite end to end.
func TestSweepStochasticDriverVariance(t *testing.T) {
	seeds := []uint64{1, 2, 3}
	results := RunSweep(context.Background(), "table2", seeds, Options{Quick: true}, RunnerOptions{})
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("seed %d: %v", seeds[i], r.Err)
		}
		if len(r.Tables) == 0 {
			t.Fatalf("seed %d: no tables", seeds[i])
		}
		if r.Wall <= 0 {
			t.Errorf("seed %d: wall time not recorded", seeds[i])
		}
	}
	// Same seed must reproduce exactly; that is what makes the sweep a
	// variance estimator rather than noise.
	again := RunSweep(context.Background(), "table2", seeds[:1], Options{Quick: true}, RunnerOptions{})
	var a, b bytes.Buffer
	if err := results[0].Tables[0].Render(&a); err != nil {
		t.Fatal(err)
	}
	if err := again[0].Tables[0].Render(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("same seed must render identically across sweep runs")
	}
}

func TestRunnerDefaultParallelism(t *testing.T) {
	if w := (RunnerOptions{}).workers(); w < 1 {
		t.Errorf("default worker count = %d, want >= 1", w)
	}
	if w := (RunnerOptions{Parallelism: 3}).workers(); w != 3 {
		t.Errorf("worker count = %d, want 3", w)
	}
}

func TestRunAllEmptyIDs(t *testing.T) {
	results := RunAll(context.Background(), nil, Options{}, RunnerOptions{})
	if len(results) != 0 {
		t.Errorf("empty ID list produced %d results", len(results))
	}
}

// TestClaimsMatchRenderedMarks runs every driver at quick seeds 3 and 7:
// each table's Failed must name exactly the rows whose last cell renders
// FAIL, by first cell and in row order, and the per-driver failed-claim
// counts must be the known ones (seed 3 ties two drills claims and
// misses four verify anchors; seed 7 passes every claim).
func TestClaimsMatchRenderedMarks(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		want map[string]int
	}{
		{3, map[string]int{"drills": 4, "tiering": 1, "verify": 4}},
		{7, map[string]int{}},
	} {
		got := map[string]int{}
		for _, r := range RunAll(context.Background(), IDs(), Options{Seed: tc.seed, Quick: true}, RunnerOptions{}) {
			if r.Err != nil {
				t.Fatalf("seed %d: %s: %v", tc.seed, r.ID, r.Err)
			}
			for _, tb := range r.Tables {
				var marked []string
				for _, row := range tb.Rows {
					if row[len(row)-1] == "FAIL" {
						marked = append(marked, row[0])
					}
				}
				if !reflect.DeepEqual(tb.Failed, marked) {
					t.Errorf("seed %d: %s: Failed %q, rows marked FAIL %q", tc.seed, tb.ID, tb.Failed, marked)
				}
			}
			if n := r.Failed(); n > 0 {
				got[r.ID] = n
			}
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("seed %d: failed claims per driver %v, want %v", tc.seed, got, tc.want)
		}
	}
}
