package experiments

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestRunAllReportsPerOutcome(t *testing.T) {
	boom := errors.New("boom")
	runners := []Runner{
		{ID: "ok", Desc: "works", Run: func(Suite) (*Table, error) {
			return &Table{ID: "ok"}, nil
		}},
		{ID: "bad", Desc: "fails", Run: func(Suite) (*Table, error) {
			return nil, boom
		}},
		{ID: "ok2", Desc: "still runs after a failure", Run: func(Suite) (*Table, error) {
			return &Table{ID: "ok2"}, nil
		}},
	}
	for _, workers := range []int{1, 4} {
		out := RunAll(Suite{Workers: workers}, runners, nil)
		if len(out) != 3 {
			t.Fatalf("workers=%d: %d outcomes", workers, len(out))
		}
		if out[0].Err != nil || out[0].Table.ID != "ok" {
			t.Fatalf("workers=%d: outcome 0: %+v", workers, out[0])
		}
		if !errors.Is(out[1].Err, boom) || out[1].Table != nil {
			t.Fatalf("workers=%d: outcome 1: %+v", workers, out[1])
		}
		if out[2].Err != nil || out[2].Table.ID != "ok2" {
			t.Fatalf("workers=%d: a failure must not mask later runners: %+v", workers, out[2])
		}
	}
}

// TestRunAllRecoversRunnerPanic: a runner that panics must surface as an
// Outcome error (with the point attributed), not kill the whole
// evaluation process.
func TestRunAllRecoversRunnerPanic(t *testing.T) {
	runners := []Runner{
		{ID: "boomer", Desc: "panics", Run: func(Suite) (*Table, error) { panic("exploded") }},
		{ID: "ok", Desc: "works", Run: func(Suite) (*Table, error) { return &Table{ID: "ok"}, nil }},
	}
	out := RunAll(Suite{Workers: 4}, runners, nil)
	if len(out) != 2 {
		t.Fatalf("%d outcomes", len(out))
	}
	if out[0].Err == nil {
		t.Fatal("panicking runner reported no error")
	}
	if out[1].Err != nil || out[1].Table.ID != "ok" {
		t.Fatalf("panic masked sibling runner: %+v", out[1])
	}
}

// TestRunAllProgressInInputOrder: progress streams every outcome,
// failures included, in input order even when later runners finish
// first.
func TestRunAllProgressInInputOrder(t *testing.T) {
	const n = 4
	var runners []Runner
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("r%d", i)
		delay := time.Duration(n-i) * 5 * time.Millisecond
		runners = append(runners, Runner{ID: id, Run: func(Suite) (*Table, error) {
			time.Sleep(delay)
			if id == "r1" {
				return nil, errors.New("boom")
			}
			return &Table{ID: id}, nil
		}})
	}
	var got []string
	RunAll(Suite{Workers: n}, runners, func(oc Outcome) { got = append(got, oc.Runner.ID) })
	if want := "r0 r1 r2 r3"; strings.Join(got, " ") != want {
		t.Fatalf("progress order %v, want %s", got, want)
	}
}

// TestSuiteSchedTotals checks that a sweep's scheduler totals reach every
// simulation it runs: the full evaluation at seed 7 sums to the counters
// `stepctl exp -workers 2 -schedstats` printed when a process-global
// collector observed every DES run (the figures did not move with the
// worker count). The hdlsim reference runs of fig8 are among them.
func TestSuiteSchedTotals(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation grids")
	}
	s := Suite{Seed: 7, Workers: 2}.EnsurePool()
	for _, oc := range RunAll(s, All(), nil) {
		if oc.Err != nil {
			t.Fatalf("%s: %v", oc.Runner.ID, oc.Err)
		}
	}
	st, runs := s.Sched()
	if runs != 219 || st.Kicks != 1424 || st.Woken != 1504434 || st.Grants != 300581 || st.GrantFastPath != 13307 {
		t.Fatalf("sched totals over %d runs: %+v; want 219 runs, kicks=1424 woken=1504434 grants=300581 grant-fastpath=13307", runs, st)
	}
}

// TestSuiteSchedTotalsSeparate runs two evaluations concurrently with
// separate suites: each must count exactly its own runs, the totals one
// evaluation alone reports.
func TestSuiteSchedTotalsSeparate(t *testing.T) {
	runners := All()
	if testing.Short() {
		runners = runners[:0]
		for _, id := range []string{"fig8", "fig10", "fig13"} {
			r, ok := Lookup(id)
			if !ok {
				t.Fatalf("no experiment %s", id)
			}
			runners = append(runners, r)
		}
	}
	eval := func(s Suite) (string, uint64) {
		for _, oc := range RunAll(s, runners, nil) {
			if oc.Err != nil {
				t.Errorf("%s: %v", oc.Runner.ID, oc.Err)
			}
		}
		st, runs := s.Sched()
		return fmt.Sprintf("%+v", st), runs
	}
	alone := Suite{Seed: 7, Quick: true, Workers: 2}.EnsurePool()
	want, wantRuns := eval(alone)
	if wantRuns == 0 {
		t.Fatal("evaluation counted no simulation runs")
	}
	suites := []Suite{
		Suite{Seed: 7, Quick: true, Workers: 2}.EnsurePool(),
		Suite{Seed: 7, Quick: true, Workers: 2}.EnsurePool(),
	}
	done := make(chan struct{})
	for _, s := range suites {
		go func() {
			defer func() { done <- struct{}{} }()
			eval(s)
		}()
	}
	<-done
	<-done
	for i, s := range suites {
		st, runs := s.Sched()
		if got := fmt.Sprintf("%+v", st); runs != wantRuns || got != want {
			t.Errorf("suite %d: %d runs %s; want %d runs %s", i, runs, got, wantRuns, want)
		}
	}
}
