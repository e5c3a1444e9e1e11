package des

import "testing"

// Allocation-regression guards for the event/element hot path. De-boxed
// event heaps and the coroutine dispatch loop keep the sequential engine
// at (amortized) zero allocations per simulated channel element; these
// tests keep it there. Budgets are per-element with a fixed per-run term
// for setup (simulation, channel, process coroutines) and include
// headroom for allocator jitter — a regression that reintroduces
// per-event garbage (interface boxing, diagnostic strings, scratch
// slices) overshoots them by orders of magnitude. A separate per-process
// budget guards the cost of spawning and retiring a process.

// runPipe simulates a producer/consumer pair moving n elements on the
// sequential engine and returns its scheduler counters.
func runPipe(n int) SchedStats {
	sim := New()
	ch := NewChan[int](sim, "c", 16, 1)
	sim.Spawn("prod", func(p *Process) error {
		for j := 0; j < n; j++ {
			p.Advance(1)
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
	if _, err := sim.Run(); err != nil {
		panic(err)
	}
	return sim.SchedStats()
}

func TestSendRecvAllocBudget(t *testing.T) {
	const n = 5000
	runPipe(n) // warm the pooled heap slabs
	avg := testing.AllocsPerRun(5, func() { runPipe(n) })
	// Setup costs ~20 allocations; the steady state must stay at zero
	// per element (budget allows 0.01/element of jitter).
	if budget := 60.0 + 0.01*n; avg > budget {
		t.Fatalf("producer/consumer of %d elements: %.1f allocs/run, budget %.1f", n, avg, budget)
	}
}

func TestRecvUntilAllocBudget(t *testing.T) {
	const n = 5000
	run := func() {
		sim := New()
		ch := NewChan[int](sim, "c", 16, 1)
		sim.Spawn("prod", func(p *Process) error {
			for j := 0; j < n; j++ {
				p.Advance(1)
				ch.Send(p, j)
			}
			ch.Close(p)
			return nil
		})
		sim.Spawn("cons", func(p *Process) error {
			got := 0
			ch.RecvUntil(p, func(int) bool { got++; return true })
			if got != n {
				panic("short read")
			}
			return nil
		})
		if _, err := sim.Run(); err != nil {
			panic(err)
		}
	}
	run()
	avg := testing.AllocsPerRun(5, run)
	if budget := 60.0 + 0.01*n; avg > budget {
		t.Fatalf("bulk drain of %d elements: %.1f allocs/run, budget %.1f", n, avg, budget)
	}
}

func TestSelectAllocBudget(t *testing.T) {
	const n = 2000
	run := func() {
		sim := New()
		a := NewChan[int](sim, "a", 8, 1)
		b := NewChan[int](sim, "b", 8, 1)
		pa := sim.Spawn("pa", func(p *Process) error {
			for j := 0; j < n; j++ {
				p.Advance(1)
				a.Send(p, j)
			}
			a.Close(p)
			return nil
		})
		pb := sim.Spawn("pb", func(p *Process) error {
			for j := 0; j < n; j++ {
				p.Advance(2)
				b.Send(p, j)
			}
			b.Close(p)
			return nil
		})
		a.BindSender(pa)
		b.BindSender(pb)
		sim.Spawn("sel", func(p *Process) error {
			for {
				i := Select(p, a, b)
				if i < 0 {
					return nil
				}
				if i == 0 {
					a.Recv(p)
				} else {
					b.Recv(p)
				}
				p.Advance(1)
			}
		})
		if _, err := sim.Run(); err != nil {
			panic(err)
		}
	}
	run()
	avg := testing.AllocsPerRun(5, run)
	// The per-process Select scratch buffer makes the per-iteration cost
	// zero; only setup may allocate.
	if budget := 80.0 + 0.01*2*n; avg > budget {
		t.Fatalf("select loop over %d elements: %.1f allocs/run, budget %.1f", 2*n, avg, budget)
	}
}

// TestSpawnAllocBudget guards the per-process cost on the sequential
// engine: spawning a process, running its body as a coroutine to
// completion, and retiring it. The coroutine (iter.Pull) accounts for 11
// of the 12 allocations measured per process; the Process itself comes
// from a chunked slab.
func TestSpawnAllocBudget(t *testing.T) {
	const k = 256
	run := func() {
		sim := New()
		for i := 0; i < k; i++ {
			sim.Spawn("once", func(p *Process) error { return nil })
		}
		if _, err := sim.Run(); err != nil {
			panic(err)
		}
	}
	run() // warm the pooled heap slabs
	avg := testing.AllocsPerRun(5, run)
	// Measured: 12 per process plus a small fixed setup term; the budget
	// leaves about 25% headroom.
	if budget := 30.0 + 15*k; avg > budget {
		t.Fatalf("%d one-shot processes: %.1f allocs/run (%.2f/process), budget %.1f", k, avg, avg/k, budget)
	}
}
