package des

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestSeqSchedStatsPipe pins the sequential engine's counters for the
// 5000-element producer/consumer pipe on a capacity-16 channel. Advance
// is a local clock bump, so a process runs until it blocks: the producer
// fills the ring and parks, the consumer drains it and parks, and each
// round moves 16 elements for two coroutine resumes (313 rounds). The
// counters are a pure function of the program, so repeated runs must
// agree exactly.
func TestSeqSchedStatsPipe(t *testing.T) {
	const n = 5000
	want := SchedStats{Woken: 2 * ((n + 15) / 16)}
	for run := 0; run < 3; run++ {
		if got := runPipe(n); got != want {
			t.Fatalf("run %d: SchedStats = %+v, want %+v", run, got, want)
		}
	}
}

// TestSeqSchedStatsSerialized checks the Serialized grant counters.
func TestSeqSchedStatsSerialized(t *testing.T) {
	sim := New()
	for i := 0; i < 3; i++ {
		sim.Spawn("s", func(p *Process) error {
			p.Serialized(func() {})
			p.Advance(Time(10 * (p.ID() + 1)))
			p.Serialized(func() {})
			return nil
		})
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// All three start runnable at t=0, so each first call finds another
	// process at or below its time and queues (3 resumes). Each grant
	// resumes its process, which advances and queues its second call
	// behind the remaining t=0 requests (3 resumes), and the second
	// calls are granted in time order (3 resumes). With no runnable
	// process left, none of the six is inline.
	want := SchedStats{Grants: 6, Woken: 9}
	if got := sim.SchedStats(); got != want {
		t.Fatalf("SchedStats = %+v, want %+v", got, want)
	}
	// A lone caller is granted inline.
	sim = New()
	sim.Spawn("s", func(p *Process) error {
		p.Serialized(func() {})
		p.Advance(5)
		p.Serialized(func() {})
		return nil
	})
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := sim.SchedStats(), (SchedStats{Grants: 2, GrantFastPath: 2, Woken: 1}); got != want {
		t.Fatalf("lone caller: SchedStats = %+v, want %+v", got, want)
	}
}

// waitGoroutines polls until the goroutine count is back at or below
// want, failing the test if it stays above.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		got := runtime.NumGoroutine()
		if got <= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, %d before: a process coroutine leaked", got, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSeqCoroutineLifecycle checks that every way a sequential run can
// end leaves no process coroutine behind (a leak that would accumulate in
// a long-running server), and that parked bodies are unwound — their
// deferred code runs — when the run aborts.
func TestSeqCoroutineLifecycle(t *testing.T) {
	// parked spawns k processes that block forever on a channel nobody
	// sends to, counting their unwinds.
	parked := func(sim *Simulation, k int, unwound *int) {
		for i := 0; i < k; i++ {
			ch := NewChan[int](sim, "never", 1, 1)
			sim.Spawn("parked", func(p *Process) error {
				defer func() { *unwound++ }()
				ch.Recv(p)
				return nil
			})
		}
	}
	cases := []struct {
		name string
		// build spawns the processes; wantUnwound is how many parked
		// bodies must run their defers during the abort.
		build       func(sim *Simulation, unwound *int)
		wantErr     string
		wantUnwound int
	}{
		{
			name: "normal finish",
			build: func(sim *Simulation, unwound *int) {
				ch := NewChan[int](sim, "c", 2, 1)
				sim.Spawn("prod", func(p *Process) error {
					for j := 0; j < 100; j++ {
						ch.Send(p, j)
					}
					ch.Close(p)
					return nil
				})
				sim.Spawn("cons", func(p *Process) error {
					for {
						if _, ok := ch.Recv(p); !ok {
							return nil
						}
						p.Advance(1)
					}
				})
			},
		},
		{
			name: "error while others parked",
			build: func(sim *Simulation, unwound *int) {
				parked(sim, 4, unwound)
				sim.Spawn("sleeper", func(p *Process) error {
					defer func() { *unwound++ }()
					p.Advance(1000)
					return nil
				})
				sim.Spawn("fails", func(p *Process) error {
					p.Advance(5)
					return errors.New("boom")
				})
			},
			wantErr:     `process "fails": boom`,
			wantUnwound: 5,
		},
		{
			name: "panic while others parked",
			build: func(sim *Simulation, unwound *int) {
				parked(sim, 4, unwound)
				sim.Spawn("panics", func(p *Process) error {
					p.Advance(5)
					panic("kaboom")
				})
			},
			wantErr:     "panicked: kaboom",
			wantUnwound: 4,
		},
		{
			name: "deadlock",
			build: func(sim *Simulation, unwound *int) {
				parked(sim, 6, unwound)
			},
			wantErr:     "deadlock",
			wantUnwound: 6,
		},
		{
			name: "error before others dispatched",
			build: func(sim *Simulation, unwound *int) {
				sim.Spawn("fails", func(p *Process) error {
					return errors.New("early")
				})
				for i := 0; i < 8; i++ {
					sim.Spawn("never-run", func(p *Process) error {
						t.Error("process ran after the simulation failed")
						return nil
					})
				}
			},
			wantErr: `process "fails": early`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			sim := New()
			unwound := 0
			tc.build(sim, &unwound)
			_, err := sim.Run()
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("unexpected error: %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("error = %v, want it to contain %q", err, tc.wantErr)
			}
			if unwound != tc.wantUnwound {
				t.Errorf("%d parked bodies unwound, want %d", unwound, tc.wantUnwound)
			}
			waitGoroutines(t, before)
		})
	}
}

// TestSeqGoexitEndsRunCaller documents the coroutine engine's Goexit
// behavior: a process calling runtime.Goexit ends the goroutine that
// called Run, and the other processes' coroutines are still unwound.
func TestSeqGoexitEndsRunCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	unwound := 0
	returned := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		sim := New()
		ch := NewChan[int](sim, "never", 1, 1)
		sim.Spawn("parked", func(p *Process) error {
			defer func() { unwound++ }()
			ch.Recv(p)
			return nil
		})
		sim.Spawn("exits", func(p *Process) error {
			p.Advance(1)
			runtime.Goexit()
			return nil
		})
		sim.Run()
		returned = true
	}()
	<-done
	if returned {
		t.Fatal("Run returned after a process called runtime.Goexit")
	}
	if unwound != 1 {
		t.Fatalf("%d parked bodies unwound, want 1", unwound)
	}
	waitGoroutines(t, before)
}
