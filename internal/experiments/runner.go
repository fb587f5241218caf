// Concurrent experiment runner: a worker-pool scheduler over the
// experiment suite. Drivers are independent pure functions of Options, so the
// suite is embarrassingly parallel; the runner fans them out across
// workers while keeping output deterministic — results are buffered and
// emitted in the order the IDs were requested, so a parallel run renders
// a byte-identical report to a sequential one.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// RunnerOptions configures the worker pool.
type RunnerOptions struct {
	// Parallelism is the worker count; <= 0 means GOMAXPROCS.
	Parallelism int
	// Timeout bounds each driver's wall time; <= 0 means no limit.
	// Drivers are pure functions and cannot be interrupted, so a
	// timed-out driver's goroutine keeps running (its result discarded)
	// while the freed worker starts the next job — after a timeout the
	// number of live driver goroutines can therefore briefly exceed
	// Parallelism. Timeout trades a strict concurrency cap for suite
	// progress past a stuck driver.
	Timeout time.Duration

	// lookup resolves an ID to a driver. Nil means the suite table;
	// tests inject their own to exercise the pool without touching it.
	lookup func(id string) (Driver, bool)
}

func (c RunnerOptions) workers() int {
	if c.Parallelism > 0 {
		return c.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

func (c RunnerOptions) resolve(id string) (Driver, bool) {
	if c.lookup != nil {
		return c.lookup(id)
	}
	return lookup(id)
}

// Result is the outcome of one driver execution. Exactly one Result is
// produced per requested ID; a failed, timed-out, or cancelled driver
// reports through Err instead of aborting the suite.
type Result struct {
	ID     string
	Seed   uint64 // seed the driver ran with (varies across a sweep)
	Tables []Table
	Err    error
	// Wall is the driver's own execution time (zero if never started).
	Wall time.Duration
}

// TableCount reports how many artifacts the driver produced.
func (r Result) TableCount() int { return len(r.Tables) }

// Failed counts the failed claims across the driver's tables.
func (r Result) Failed() (n int) {
	for _, t := range r.Tables {
		n += len(t.Failed)
	}
	return n
}

// job is one unit of pool work: run driver id with opts, deliver at index.
type job struct {
	index int
	id    string
	opts  Options
}

// Stream executes one job per requested ID on a worker pool and delivers
// results on the returned channel in request order, regardless of
// completion order. The channel always carries exactly one Result per ID
// and is closed afterwards. When ctx is cancelled, queued and in-flight
// jobs resolve to Results with Err = ctx.Err() and the channel closes
// promptly; an in-flight driver's goroutine is abandoned (drivers are
// pure functions and cannot be interrupted) and its work discarded.
func Stream(ctx context.Context, ids []string, opts Options, cfg RunnerOptions) <-chan Result {
	jobs := make([]job, len(ids))
	for i, id := range ids {
		jobs[i] = job{index: i, id: id, opts: opts}
	}
	return runPool(ctx, jobs, cfg)
}

// RunAll executes the IDs and returns one Result per ID in request order.
// It never fails as a whole: per-driver errors (including cancellation)
// are carried in each Result.
func RunAll(ctx context.Context, ids []string, opts Options, cfg RunnerOptions) []Result {
	return collect(Stream(ctx, ids, opts, cfg), len(ids))
}

// StreamSweep fans a single driver out across seeds, for variance
// estimation of the stochastic drivers. Results are delivered in seed
// order with Seed set to the sweep point; base supplies every other
// option.
func StreamSweep(ctx context.Context, id string, seeds []uint64, base Options, cfg RunnerOptions) <-chan Result {
	jobs := make([]job, len(seeds))
	for i, seed := range seeds {
		o := base
		o.Seed = seed
		jobs[i] = job{index: i, id: id, opts: o}
	}
	return runPool(ctx, jobs, cfg)
}

// RunSweep collects StreamSweep into a slice, one Result per seed.
func RunSweep(ctx context.Context, id string, seeds []uint64, base Options, cfg RunnerOptions) []Result {
	return collect(StreamSweep(ctx, id, seeds, base, cfg), len(seeds))
}

func collect(ch <-chan Result, n int) []Result {
	out := make([]Result, 0, n)
	for r := range ch {
		out = append(out, r)
	}
	return out
}

// runPool is the shared scheduler behind Stream, RunAll and RunSweep.
func runPool(ctx context.Context, jobs []job, cfg RunnerOptions) <-chan Result {
	type indexed struct {
		index int
		res   Result
	}
	feed := make(chan job)
	done := make(chan indexed, len(jobs))
	out := make(chan Result, len(jobs))

	workers := cfg.workers()
	if workers > len(jobs) && len(jobs) > 0 {
		workers = len(jobs)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range feed {
				done <- indexed{j.index, runJob(ctx, j, cfg)}
			}
		}()
	}

	// Feeder: hand out jobs until ctx cancels, then stop scheduling.
	go func() {
		defer close(feed)
		for _, j := range jobs {
			select {
			case feed <- j:
			case <-ctx.Done():
				return
			}
		}
	}()

	go func() {
		wg.Wait()
		close(done)
	}()

	// Collector: reorder completions into request order, emitting each
	// result as soon as every earlier one has been delivered. After the
	// pool drains, jobs it never ran (cancelled before scheduling) are
	// filled with ctx.Err().
	go func() {
		defer close(out)
		pending := make(map[int]Result, len(jobs))
		next := 0
		for d := range done {
			pending[d.index] = d.res
			for {
				r, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				out <- r
				next++
			}
		}
		for ; next < len(jobs); next++ {
			r, ok := pending[next]
			if !ok {
				j := jobs[next]
				r = Result{ID: j.id, Seed: j.opts.Seed, Err: ctx.Err()}
			}
			out <- r
		}
	}()
	return out
}

// runJob executes one driver with panic recovery, the per-driver timeout,
// and context cancellation. On timeout or cancellation the driver
// goroutine is abandoned and its eventual result dropped.
//
//edgereasoning:wallclock -- host-side driver timeout and wall-time accounting; simulated time lives in the engine's event clock
func runJob(ctx context.Context, j job, cfg RunnerOptions) Result {
	res := Result{ID: j.id, Seed: j.opts.Seed}
	d, ok := cfg.resolve(j.id)
	if !ok {
		res.Err = UnknownIDError(j.id)
		return res
	}
	if err := ctx.Err(); err != nil {
		res.Err = err
		return res
	}

	type outcome struct {
		tables []Table
		err    error
	}
	ch := make(chan outcome, 1)
	start := time.Now()
	go func() {
		defer func() {
			if p := recover(); p != nil {
				ch <- outcome{err: fmt.Errorf("driver %s panicked: %v", j.id, p)}
			}
		}()
		tables, err := d(j.opts)
		ch <- outcome{tables: tables, err: err}
	}()

	var timeout <-chan time.Time
	if cfg.Timeout > 0 {
		t := time.NewTimer(cfg.Timeout)
		defer t.Stop()
		timeout = t.C
	}
	// completed drains ch without blocking: a driver finishing exactly as
	// the deadline (or cancellation) fires leaves both channels ready and
	// select picks randomly — prefer the finished result over reporting a
	// spurious failure and dropping its tables.
	completed := func() bool {
		select {
		case o := <-ch:
			res.Tables, res.Err = o.tables, o.err
			return true
		default:
			return false
		}
	}
	select {
	case o := <-ch:
		res.Tables, res.Err = o.tables, o.err
	case <-timeout:
		if !completed() {
			res.Err = fmt.Errorf("driver %s: timeout after %v", j.id, cfg.Timeout)
		}
	case <-ctx.Done():
		if !completed() {
			res.Err = ctx.Err()
		}
	}
	res.Wall = time.Since(start)
	return res
}
