package harness

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"step/internal/des"
	"step/internal/graph"
)

// Suite configures a run of the experiment set.
type Suite struct {
	// Seed drives every synthetic trace.
	Seed uint64
	// Quick shrinks sweeps (used by -short tests); full mode matches the
	// paper's parameter grids.
	Quick bool
	// Workers bounds the fan-out of independent sweep points (and of
	// whole experiments under RunAll). Zero means one worker per CPU
	// (runtime.GOMAXPROCS(0)); 1 runs everything sequentially on the
	// calling goroutine, preserving the pre-harness behavior for
	// debugging. Rendered tables are byte-identical at any worker count.
	Workers int
	// SimWorkers selects the DES engine inside each simulation: 0 or 1
	// runs the sequential reference engine; >= 2 runs the DAM-style
	// conservative parallel engine (one goroutine per dataflow block,
	// per-process local clocks). Both engines produce byte-identical
	// tables; see internal/des.
	SimWorkers int
	// Ctx, when non-nil, cancels sweep dispatch: once Ctx is done,
	// ParMap stops handing out not-yet-started points and returns
	// Ctx.Err(). Points already in flight (each a self-contained DES
	// simulation) run to completion, mirroring the first-error path, so
	// cancellation latency is bounded by one simulation, not the sweep.
	Ctx context.Context
	// OnPoint, when non-nil, is invoked once for every sweep point that
	// executes — successes, failures, and panics alike. Points that are
	// never started (abandoned after a first error or a context cancel)
	// do not fire. Events arrive in completion order, not index order,
	// possibly concurrently from pool workers and from nested sweeps, so
	// the hook must be goroutine-safe; every firing happens before the
	// point's ParMap call returns. Scenario jobs use it for live
	// per-point progress and streaming row delivery; see Spec.PointCount
	// for the matching total of successful firings.
	OnPoint func(PointEvent)
	// sem is the shared worker-token pool (see Suite.EnsurePool):
	// nested sweeps draw from one budget so total concurrency stays
	// bounded by Workers at any fan-out depth.
	sem chan struct{}
	// sched sums the scheduler counters of the sweep's runs (see Sched),
	// shared like sem by the copies made after EnsurePool.
	sched *schedTotals
}

type schedTotals struct {
	sync.Mutex
	total des.SchedStats
	runs  uint64
}

// effectiveWorkers resolves a Suite.Workers setting to a concrete worker
// count: zero (or negative) means one worker per available CPU.
func effectiveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// EnsurePool equips the suite with its shared worker budget and its
// scheduler totals (see Sched). The budget is a token pool holding
// Workers-1 spare tokens (the goroutine calling ParMap always counts as
// the implicit first worker). Nested ParMap calls draw from the same
// pool, so total concurrency stays bounded by Workers regardless of
// fan-out depth — an outer sweep that grabbed every spare token simply
// runs its inner sweeps inline. Entry points (RunAll and each
// registered experiment) call this once; the zero Suite degrades to a
// per-call pool inside ParMap and keeps no totals.
func (s Suite) EnsurePool() Suite {
	if s.sched == nil {
		s.sched = new(schedTotals)
	}
	if w := effectiveWorkers(s.Workers); s.sem == nil && w > 1 {
		s.sem = make(chan struct{}, w-1)
		for i := 0; i < w-1; i++ {
			s.sem <- struct{}{}
		}
	}
	return s
}

// Run runs p on the suite's DES engine (SimWorkers), with opts applied
// after it, and adds the run's scheduler counters to the suite's totals.
// Every simulation of a sweep runs through it.
func (s Suite) Run(p *graph.Program, opts ...graph.RunOption) (*graph.Session, error) {
	sess, err := p.Run(append([]graph.RunOption{graph.WithSimWorkers(s.SimWorkers)}, opts...)...)
	if err == nil {
		s.AddSched(sess.Result.Sched)
	}
	return sess, err
}

// AddSched adds one run's scheduler counters to the suite's totals (the
// zero Suite keeps none). A sweep calls it for a DES run made without a
// Program.
func (s Suite) AddSched(st des.SchedStats) {
	if t := s.sched; t != nil {
		t.Lock()
		t.total.Add(st)
		t.runs++
		t.Unlock()
	}
}

// Sched returns the scheduler counters summed over the sweep's runs so
// far, and the number of runs. Separate suites never see each other's.
func (s Suite) Sched() (des.SchedStats, uint64) {
	if t := s.sched; t != nil {
		t.Lock()
		defer t.Unlock()
		return t.total, t.runs
	}
	return des.SchedStats{}, 0
}

// PointEvent describes one completed sweep point, delivered to
// Suite.OnPoint as the point lands.
type PointEvent struct {
	// Index is the point's index within its ParMap call.
	Index int
	// Row is fn's result for the point — the value that becomes
	// out[Index] — or nil when Err is non-nil.
	Row any
	// Err is nil on success, fn's error on failure, or a
	// *PointPanicError when the point panicked.
	Err error
	// Duration is the wall-clock time fn spent on the point.
	Duration time.Duration
}

// emit fires the suite's OnPoint hook for a completed point.
func (s Suite) emit(i int, v any, err error, start time.Time) {
	if s.OnPoint == nil {
		return
	}
	ev := PointEvent{Index: i, Err: err, Duration: time.Since(start)}
	if err == nil {
		ev.Row = v
	}
	s.OnPoint(ev)
}

// PointPanicError is the error ParMap returns when a sweep-point
// function panics: it records which point died and the recovered value,
// so a failing grid point in a thousand-point sweep is attributable.
type PointPanicError struct {
	// Index is the sweep-point index passed to fn.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PointPanicError) Error() string {
	return fmt.Sprintf("harness: sweep point %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// canceled reports the suite context's error, or nil when no context
// was attached or it is still live.
func (s Suite) canceled() error {
	if s.Ctx == nil {
		return nil
	}
	return s.Ctx.Err()
}

// callPoint invokes fn(i), converting a panic into a *PointPanicError so
// one bad grid point fails its sweep through the normal first-error path
// instead of killing the process.
func callPoint[T any](fn func(int) (T, error), i int) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PointPanicError{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}

// ParMap evaluates fn(0..n-1) on the suite's worker pool and collects
// the results by index, so the output order is independent of goroutine
// scheduling. Each fn call must be self-contained (every DES simulation
// owns its scheduler), which keeps individual runs bit-for-bit
// deterministic under any worker count.
//
// The calling goroutine always executes jobs itself; helper goroutines
// are added only for spare tokens in the suite's shared pool, so the
// pool never deadlocks and never exceeds Workers concurrent jobs across
// nested sweeps. The first error stops the dispatch of not-yet-started
// indices — in-flight jobs run to completion — and is returned once all
// workers drain. A panic inside fn is recovered and converted to a
// *PointPanicError carrying the point index, then propagated like any
// other first error. With Workers = 1 (or n = 1) jobs run inline on the
// calling goroutine and the first error returns immediately, preserving
// the pre-harness sequential behavior for debugging.
//
// Every executed point — including the one that fails a sweep — fires
// Suite.OnPoint as it lands, out of order; final result collection
// stays index-ordered regardless.
func ParMap[T any](s Suite, n int, fn func(int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}
	if s.sem == nil {
		s = s.EnsurePool()
	}
	if s.sem == nil || n == 1 {
		for i := 0; i < n; i++ {
			if err := s.canceled(); err != nil {
				return nil, err
			}
			start := time.Now()
			v, err := callPoint(fn, i)
			s.emit(i, v, err, start)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	var (
		mu       sync.Mutex
		firstErr error
		next     int
	)
	// take hands out the next index, or -1 once the range is exhausted,
	// a job has failed (early cancellation), or the suite context was
	// canceled (queued points are abandoned; in-flight ones finish).
	take := func() int {
		mu.Lock()
		defer mu.Unlock()
		if firstErr == nil {
			if err := s.canceled(); err != nil {
				firstErr = err
			}
		}
		if firstErr != nil || next >= n {
			return -1
		}
		i := next
		next++
		return i
	}
	fail := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		if firstErr == nil {
			firstErr = err
		}
	}
	// Every worker re-polls the shared pool before each job, so
	// capacity freed elsewhere (a sibling sweep finishing) is
	// reabsorbed by long-running stragglers instead of idling. Each
	// helper holds one token and returns it when it drains.
	var (
		wg   sync.WaitGroup
		work func()
	)
	trySpawn := func() {
		select {
		case <-s.sem:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { s.sem <- struct{}{} }()
				work()
			}()
		default:
		}
	}
	work = func() {
		for {
			i := take()
			if i < 0 {
				return
			}
			if i < n-1 {
				// More indices remain: offer them a worker.
				trySpawn()
			}
			start := time.Now()
			v, err := callPoint(fn, i)
			s.emit(i, v, err, start)
			if err != nil {
				fail(err)
				return
			}
			out[i] = v
		}
	}
	work()
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}
