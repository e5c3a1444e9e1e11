package experiments

import (
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"step/internal/harness"
)

// Outcome is the result of one registered experiment run by RunAll.
type Outcome struct {
	Runner  Runner
	Table   *Table // nil when Err is set
	Err     error
	Elapsed time.Duration
}

// RunAll executes the given runners (pass All() for the full evaluation)
// fanned out across the suite's worker pool. Every runner executes even
// when another fails — errors are reported per Outcome so a broken
// experiment cannot mask the rest of the evaluation — and outcomes are
// returned in input order regardless of completion order.
//
// When progress is non-nil it streams the same outcomes in input order:
// each is passed as soon as it and every earlier one have finished,
// serialized so the callback needs no locking. Elapsed is wall-clock
// time, so under a shared pool it includes contention with concurrently
// running experiments.
func RunAll(s Suite, runners []Runner, progress func(Outcome)) []Outcome {
	s = s.EnsurePool()
	var (
		mu   sync.Mutex
		done = make([]*Outcome, len(runners))
		next int // first outcome not yet passed to progress
	)
	out, err := harness.ParMap(s, len(runners), func(i int) (Outcome, error) {
		r := runners[i]
		start := time.Now()
		tb, err := safeRun(r, s)
		oc := Outcome{Runner: r, Table: tb, Err: err, Elapsed: time.Since(start)}
		if progress != nil {
			mu.Lock()
			defer mu.Unlock()
			for done[i] = &oc; next < len(done) && done[next] != nil; next++ {
				progress(*done[next])
			}
		}
		return oc, nil
	})
	if err != nil {
		// The point functions never return errors (runner failures land
		// in their Outcome via safeRun), so the only possible source is
		// a panic in the caller's progress callback, recovered by
		// harness.ParMap. Re-panic rather than silently returning a
		// partial outcome slice as if the evaluation succeeded.
		panic(err)
	}
	return out
}

// safeRun invokes the runner, converting a panic into the outcome's
// error: one crashing experiment must report itself by ID instead of
// killing the evaluation process. Panics inside an experiment's own
// sweep fan-out are already recovered per point by harness.ParMap.
func safeRun(r Runner, s Suite) (tb *Table, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			tb, err = nil, fmt.Errorf("experiments: %s panicked: %v\n%s", r.ID, rec, debug.Stack())
		}
	}()
	return r.Run(s)
}
