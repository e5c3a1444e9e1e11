package onchip

import (
	"fmt"
	"testing"

	"step/internal/des"
)

// procs spawns and runs n no-op processes, so a test can attribute
// allocations to them (each at its final virtual time, 0).
func procs(n int) []*des.Process {
	sim := des.New()
	out := make([]*des.Process, n)
	for i := range out {
		out[i] = sim.Spawn(fmt.Sprintf("p%d", i), func(*des.Process) error { return nil })
	}
	_, _ = sim.Run()
	return out
}

// mustAlloc allocates bytes on behalf of p or fails the test.
func mustAlloc(t *testing.T, s *Scratchpad, p *des.Process, bytes int64) {
	t.Helper()
	if _, err := s.Alloc(p, bytes); err != nil {
		t.Fatal(err)
	}
}

// mustResolve replays s and checks the live and peak bytes.
func mustResolve(t *testing.T, s *Scratchpad, live, peak int64) {
	t.Helper()
	l, pk, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if l != live || pk != peak {
		t.Fatalf("live=%d peak=%d, want %d/%d", l, pk, live, peak)
	}
}

func TestAllocFreePeak(t *testing.T) {
	s := New(DefaultConfig())
	p := procs(1)[0]
	mustAlloc(t, s, p, 100)
	mustAlloc(t, s, p, 200)
	mustResolve(t, s, 300, 300)
	s.Free(p, 100)
	mustResolve(t, s, 200, 300)
	mustAlloc(t, s, p, 50)
	mustResolve(t, s, 250, 300)
}

func TestCapacityEnforced(t *testing.T) {
	cfg := Config{BandwidthBytesPerCycle: 64, CapacityBytes: 256}
	s := New(cfg)
	p := procs(1)[0]
	mustAlloc(t, s, p, 200)
	mustAlloc(t, s, p, 100)
	if _, _, err := s.Resolve(); err == nil {
		t.Fatal("expected capacity error")
	}
	// Freed bytes count against capacity no longer.
	s = New(cfg)
	mustAlloc(t, s, p, 200)
	s.Free(p, 200)
	mustAlloc(t, s, p, 256)
	mustResolve(t, s, 256, 256)
}

func TestNegativeAllocRejected(t *testing.T) {
	s := New(DefaultConfig())
	if _, err := s.Alloc(procs(1)[0], -1); err == nil {
		t.Fatal("expected error")
	}
}

func TestBadFreePanics(t *testing.T) {
	s := New(DefaultConfig())
	p := procs(1)[0]
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Free(p, -1)
}

func TestOverFreeResolvesErr(t *testing.T) {
	s := New(DefaultConfig())
	s.Free(procs(1)[0], 1)
	if _, _, err := s.Resolve(); err == nil {
		t.Fatal("freeing more than is live must surface from Resolve")
	}
}

func TestAccessCycles(t *testing.T) {
	s := New(Config{BandwidthBytesPerCycle: 64})
	if got := s.AccessCycles(0); got != 0 {
		t.Fatalf("0 bytes = %d cycles", got)
	}
	if got := s.AccessCycles(64); got != 1 {
		t.Fatalf("64 bytes = %d cycles", got)
	}
	if got := s.AccessCycles(65); got != 2 {
		t.Fatalf("65 bytes = %d cycles", got)
	}
}

func TestEventLogDeterministicReplay(t *testing.T) {
	// Process-attributed allocations resolve in (time, pid, seq) order no
	// matter which order the per-process logs were appended in, so peak
	// and capacity accounting are identical on both DES engines.
	build := func(reverse bool) *Scratchpad {
		s := New(Config{BandwidthBytesPerCycle: 64, CapacityBytes: 250})
		ps := procs(2)
		p0, p1 := ps[0], ps[1]
		// Hand-crafted logs: p0 allocates 100 at t=0 and frees at t=0;
		// p1 allocates 200 at t=0. Replay order is by (time, pid, seq):
		// +100 (p0), -100 (p0), +200 (p1) -> peak 200, no capacity error.
		log := func(p *des.Process, deltas ...int64) {
			for _, d := range deltas {
				if d >= 0 {
					mustAlloc(t, s, p, d)
				} else {
					s.Free(p, -d)
				}
			}
		}
		if reverse {
			log(p1, 200)
			log(p0, 100, -100)
		} else {
			log(p0, 100, -100)
			log(p1, 200)
		}
		return s
	}
	for _, rev := range []bool{false, true} {
		live, peak, err := build(rev).Resolve()
		if peak != 200 {
			t.Fatalf("reverse=%v: peak = %d, want 200 (replay order must ignore append order)", rev, peak)
		}
		if err != nil {
			t.Fatalf("reverse=%v: unexpected capacity error: %v", rev, err)
		}
		if live != 200 {
			t.Fatalf("reverse=%v: live = %d", rev, live)
		}
	}
}

func TestEventLogCapacityErr(t *testing.T) {
	s := New(Config{BandwidthBytesPerCycle: 64, CapacityBytes: 100})
	proc := procs(1)[0]
	mustAlloc(t, s, proc, 80)
	mustAlloc(t, s, proc, 80) // capacity enforcement is deferred to Resolve
	if _, _, err := s.Resolve(); err == nil {
		t.Fatal("expected deferred capacity error")
	}
}
