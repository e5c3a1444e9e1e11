package des

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// engines returns a fresh simulation per engine under test.
func engines() map[string]func() *Simulation {
	return map[string]func() *Simulation{
		"seq": func() *Simulation { return NewWithWorkers(1) },
		"par": func() *Simulation { return NewWithWorkers(8) },
	}
}

// pipelineRun builds a randomized linear pipeline and returns its final
// time and the sink's observation trace (value, recv time).
func pipelineRun(sim *Simulation, stages, items int, delays []uint8, capacity int, latency Time) (Time, []Time, error) {
	var prev *Chan[int]
	var procs []*Process
	var chans []*Chan[int]
	for s := 0; s < stages; s++ {
		cur := NewChan[int](sim, fmt.Sprintf("c%d", s), capacity, latency)
		chans = append(chans, cur)
		in := prev
		d := Time(delays[s%len(delays)]%5) + 1
		if in == nil {
			procs = append(procs, sim.Spawn("src", func(p *Process) error {
				for i := 0; i < items; i++ {
					p.Advance(d)
					cur.Send(p, i)
				}
				cur.Close(p)
				return nil
			}))
		} else {
			procs = append(procs, sim.Spawn("stage", func(p *Process) error {
				defer cur.Close(p)
				for {
					v, ok := in.Recv(p)
					if !ok {
						return nil
					}
					p.Advance(d)
					cur.Send(p, v)
				}
			}))
		}
		prev = cur
	}
	last := prev
	var times []Time
	sink := sim.Spawn("sink", func(p *Process) error {
		for {
			if _, ok := last.Recv(p); !ok {
				return nil
			}
			times = append(times, p.Now())
		}
	})
	for i, c := range chans {
		c.BindSender(procs[i])
		if i+1 < len(procs) {
			c.BindRecver(procs[i+1])
		} else {
			c.BindRecver(sink)
		}
	}
	ft, err := sim.Run()
	return ft, times, err
}

// TestEngineEquivalencePipeline: the parallel engine reproduces the
// sequential engine's virtual-time trace exactly on randomized pipelines
// (arbitrary stage delays, capacities, latencies — including latency 0,
// which is safe outside Select).
func TestEngineEquivalencePipeline(t *testing.T) {
	f := func(st8, it8, cap8, lat8 uint8, delays []uint8) bool {
		if len(delays) == 0 {
			delays = []uint8{1}
		}
		stages := int(st8%5) + 2
		items := int(it8 % 30)
		capacity := int(cap8%4) + 1
		latency := Time(lat8 % 4)
		fa, ta, errA := pipelineRun(NewWithWorkers(1), stages, items, delays, capacity, latency)
		fb, tb, errB := pipelineRun(NewWithWorkers(8), stages, items, delays, capacity, latency)
		if (errA == nil) != (errB == nil) {
			t.Logf("err mismatch: %v vs %v", errA, errB)
			return false
		}
		if fa != fb || len(ta) != len(tb) {
			t.Logf("final %d vs %d, trace %d vs %d", fa, fb, len(ta), len(tb))
			return false
		}
		for i := range ta {
			if ta[i] != tb[i] {
				t.Logf("recv time %d: %d vs %d", i, ta[i], tb[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// mergeRun builds K producers into a Select-based merger. Select-input
// latencies are >= 1, the regime where the engines are exactly equivalent.
func mergeRun(sim *Simulation, k, n int, lat Time, capacity int) (Time, []int, error) {
	chans := make([]*Chan[int], k)
	for i := range chans {
		chans[i] = NewChan[int](sim, fmt.Sprintf("m%d", i), capacity, lat)
	}
	for i := 0; i < k; i++ {
		ch := chans[i]
		id := i
		ch.BindSender(sim.Spawn("prod", func(p *Process) error {
			for j := 0; j < n; j++ {
				p.Advance(Time(1 + (id+j)%3))
				ch.Send(p, id*1000+j)
			}
			ch.Close(p)
			return nil
		}))
	}
	var got []int
	merge := sim.Spawn("merge", func(p *Process) error {
		sels := make([]Selectable, k)
		for i := range chans {
			sels[i] = chans[i]
		}
		for {
			i := Select(p, sels...)
			if i < 0 {
				return nil
			}
			v, ok := chans[i].Recv(p)
			if !ok {
				continue
			}
			got = append(got, v)
		}
	})
	for _, c := range chans {
		c.BindRecver(merge)
	}
	ft, err := sim.Run()
	return ft, got, err
}

// TestEngineEquivalenceMerge: eager merges commit the same elements in the
// same order at the same times on both engines.
func TestEngineEquivalenceMerge(t *testing.T) {
	f := func(k8, n8, lat8, cap8 uint8) bool {
		k := int(k8%4) + 2
		n := int(n8 % 20)
		lat := Time(lat8%3) + 1
		capacity := int(cap8%4) + 1
		fa, ga, errA := mergeRun(NewWithWorkers(1), k, n, lat, capacity)
		fb, gb, errB := mergeRun(NewWithWorkers(8), k, n, lat, capacity)
		if (errA == nil) != (errB == nil) || fa != fb || len(ga) != len(gb) {
			t.Logf("final %d vs %d, n %d vs %d (%v / %v)", fa, fb, len(ga), len(gb), errA, errB)
			return false
		}
		for i := range ga {
			if ga[i] != gb[i] {
				t.Logf("merge order differs at %d: %d vs %d", i, ga[i], gb[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// busModel is a miniature shared-resource model in the style of the HBM
// bus: Serialized critical sections reserve it in deterministic order.
type busModel struct {
	nextFree Time
	order    []int
	arrivals []Time
}

func serializedRun(sim *Simulation, workers, reqs int) (Time, *busModel, error) {
	bus := &busModel{}
	for w := 0; w < workers; w++ {
		id := w
		sim.Spawn(fmt.Sprintf("w%d", w), func(p *Process) error {
			for r := 0; r < reqs; r++ {
				p.Advance(Time(1 + (id+r)%4))
				var arrival Time
				p.Serialized(func() {
					start := p.Now()
					if bus.nextFree > start {
						start = bus.nextFree
					}
					busy := Time(2 + (id+r)%3)
					bus.nextFree = start + busy
					arrival = start + busy
					bus.order = append(bus.order, id*100+r)
					bus.arrivals = append(bus.arrivals, arrival)
				})
				p.AdvanceTo(arrival)
			}
			return nil
		})
	}
	ft, err := sim.Run()
	return ft, bus, err
}

// TestEngineEquivalenceSerialized: same-cycle bus contention resolves in
// the same (time, pid, seq) order on both engines, yielding identical
// reservation traces.
func TestEngineEquivalenceSerialized(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 5} {
		for _, reqs := range []int{1, 3, 7} {
			fa, busA, errA := serializedRun(NewWithWorkers(1), workers, reqs)
			fb, busB, errB := serializedRun(NewWithWorkers(8), workers, reqs)
			if errA != nil || errB != nil {
				t.Fatalf("w=%d r=%d: %v / %v", workers, reqs, errA, errB)
			}
			if fa != fb {
				t.Fatalf("w=%d r=%d: final %d vs %d", workers, reqs, fa, fb)
			}
			if len(busA.order) != len(busB.order) {
				t.Fatalf("w=%d r=%d: %d vs %d grants", workers, reqs, len(busA.order), len(busB.order))
			}
			for i := range busA.order {
				if busA.order[i] != busB.order[i] || busA.arrivals[i] != busB.arrivals[i] {
					t.Fatalf("w=%d r=%d: grant %d differs: (%d@%d) vs (%d@%d)",
						workers, reqs, i, busA.order[i], busA.arrivals[i], busB.order[i], busB.arrivals[i])
				}
			}
		}
	}
}

// TestEngineEquivalenceMixed exercises everything at once: pipeline +
// merge + serialized resource + backpressure, across both engines, and
// repeats the parallel run to catch schedule-dependent nondeterminism.
func TestEngineEquivalenceMixed(t *testing.T) {
	run := func(sim *Simulation) (Time, []int, Time, error) {
		k := 3
		mid := make([]*Chan[int], k)
		for i := range mid {
			mid[i] = NewChan[int](sim, fmt.Sprintf("mid%d", i), 2, 1)
		}
		bus := &busModel{}
		for i := 0; i < k; i++ {
			ch := mid[i]
			id := i
			ch.BindSender(sim.Spawn("load", func(p *Process) error {
				for j := 0; j < 12; j++ {
					p.Advance(Time(1 + (id*j)%3))
					var arrival Time
					p.Serialized(func() {
						start := p.Now()
						if bus.nextFree > start {
							start = bus.nextFree
						}
						bus.nextFree = start + 2
						arrival = start + 2
					})
					p.AdvanceTo(arrival)
					ch.Send(p, id*100+j)
				}
				ch.Close(p)
				return nil
			}))
		}
		out := NewChan[int](sim, "out", 1, 1)
		merge := sim.Spawn("merge", func(p *Process) error {
			defer out.Close(p)
			sels := make([]Selectable, k)
			for i := range mid {
				sels[i] = mid[i]
			}
			for {
				i := Select(p, sels...)
				if i < 0 {
					return nil
				}
				v, ok := mid[i].Recv(p)
				if !ok {
					continue
				}
				out.Send(p, v)
			}
		})
		for _, c := range mid {
			c.BindRecver(merge)
		}
		out.BindSender(merge)
		var got []int
		sink := sim.Spawn("sink", func(p *Process) error {
			for {
				v, ok := out.Recv(p)
				if !ok {
					return nil
				}
				got = append(got, v)
				p.Advance(2)
			}
		})
		out.BindRecver(sink)
		ft, err := sim.Run()
		return ft, got, bus.nextFree, err
	}
	fa, ga, busA, errA := run(NewWithWorkers(1))
	if errA != nil {
		t.Fatal(errA)
	}
	for rep := 0; rep < 5; rep++ {
		fb, gb, busB, errB := run(NewWithWorkers(8))
		if errB != nil {
			t.Fatal(errB)
		}
		if fa != fb || busA != busB || len(ga) != len(gb) {
			t.Fatalf("rep %d: final %d vs %d, bus %d vs %d, n %d vs %d", rep, fa, fb, busA, busB, len(ga), len(gb))
		}
		for i := range ga {
			if ga[i] != gb[i] {
				t.Fatalf("rep %d: order differs at %d: %d vs %d", rep, i, ga[i], gb[i])
			}
		}
	}
}

// TestParallelDeadlockDetection: a genuinely stuck program is reported as
// a deadlock, naming the blocked processes, on both engines.
func TestParallelDeadlockDetection(t *testing.T) {
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) {
			sim := mk()
			ch := NewChan[int](sim, "never", 1, 0)
			stuck := sim.Spawn("stuck", func(p *Process) error {
				_, _ = ch.Recv(p)
				return nil
			})
			ch.BindRecver(stuck)
			_, err := sim.Run()
			if err == nil || !strings.Contains(err.Error(), "deadlock") {
				t.Fatalf("err = %v", err)
			}
			if !strings.Contains(err.Error(), "stuck") {
				t.Fatalf("deadlock error should name the process: %v", err)
			}
		})
	}
}

// TestTeardownRecvParked: processes still parked on channel receives when
// another process errors are aborted cleanly and Run returns the error.
func TestTeardownRecvParked(t *testing.T) {
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) {
			sim := mk()
			ch := NewChan[int](sim, "c", 1, 0)
			waiter := sim.Spawn("waiting", func(p *Process) error {
				_, _ = ch.Recv(p)
				return nil
			})
			ch.BindRecver(waiter)
			sim.Spawn("failing", func(p *Process) error {
				p.Advance(3)
				return errTest
			})
			_, err := sim.Run()
			if err == nil || !strings.Contains(err.Error(), "failing") {
				t.Fatalf("err = %v", err)
			}
		})
	}
}

// TestTeardownSendParked: a sender blocked on a full channel is aborted
// when another process errors (pre-tentpole this leaked the goroutine
// into the deadlock reporter).
func TestTeardownSendParked(t *testing.T) {
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) {
			sim := mk()
			ch := NewChan[int](sim, "full", 1, 0)
			sender := sim.Spawn("sender", func(p *Process) error {
				ch.Send(p, 1)
				ch.Send(p, 2) // blocks: no receiver drains
				return nil
			})
			ch.BindSender(sender)
			sim.Spawn("failing", func(p *Process) error {
				p.Advance(5)
				return errTest
			})
			_, err := sim.Run()
			if err == nil || !strings.Contains(err.Error(), "failing") {
				t.Fatalf("err = %v", err)
			}
		})
	}
}

// TestTeardownSelectParked: a Select-parked process aborts cleanly.
func TestTeardownSelectParked(t *testing.T) {
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) {
			sim := mk()
			a := NewChan[int](sim, "a", 1, 1)
			b := NewChan[int](sim, "b", 1, 1)
			idle := sim.Spawn("idle", func(p *Process) error {
				// Never sends; parks forever on its own channel.
				_, _ = a.Recv(p)
				return nil
			})
			_ = idle
			a.BindSender(sim.Spawn("slow-a", func(p *Process) error {
				p.Advance(1000)
				return errTest // errors before ever sending
			}))
			b.BindSender(sim.Spawn("slow-b", func(p *Process) error {
				p.Advance(2000)
				b.Close(p)
				return nil
			}))
			sel := sim.Spawn("merging", func(p *Process) error {
				Select(p, b)
				return nil
			})
			b.BindRecver(sel)
			a.BindRecver(idle)
			_, err := sim.Run()
			if err == nil || !strings.Contains(err.Error(), "slow-a") {
				t.Fatalf("err = %v", err)
			}
		})
	}
}

// TestTeardownSerializedParked: a process waiting for a Serialized grant
// aborts cleanly when the simulation fails.
func TestTeardownSerializedParked(t *testing.T) {
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) {
			sim := mk()
			ch := NewChan[int](sim, "gate", 1, 0)
			blocker := sim.Spawn("holder", func(p *Process) error {
				// Keeps its clock at 0 parked on a never-written channel,
				// so the other process's Serialized call at t=5 can never
				// be granted.
				_, _ = ch.Recv(p)
				return nil
			})
			ch.BindRecver(blocker)
			ch.BindSender(sim.Spawn("failing", func(p *Process) error {
				p.Advance(3)
				return errTest
			}))
			sim.Spawn("requester", func(p *Process) error {
				p.Advance(5)
				p.Serialized(func() {})
				return nil
			})
			_, err := sim.Run()
			if err == nil || !strings.Contains(err.Error(), "failing") {
				t.Fatalf("err = %v", err)
			}
		})
	}
}

// TestCloseWakesBlockedSender is the regression test for the channel-close
// bug: a sender parked on a full channel at close time must observe the
// canonical "send on closed channel" panic (as a process error), not hang
// until the deadlock reporter fires.
func TestCloseWakesBlockedSender(t *testing.T) {
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) {
			sim := mk()
			ch := NewChan[int](sim, "c", 1, 0)
			sender := sim.Spawn("producer", func(p *Process) error {
				ch.Send(p, 1)
				ch.Send(p, 2) // blocks: capacity 1, nothing dequeues
				return nil
			})
			ch.BindSender(sender)
			closer := sim.Spawn("closer", func(p *Process) error {
				p.Advance(10)
				ch.Close(p)
				return nil
			})
			ch.BindRecver(closer)
			_, err := sim.Run()
			if err == nil || !strings.Contains(err.Error(), "send on closed channel") {
				t.Fatalf("want send-on-closed panic surfaced as process error, got: %v", err)
			}
			if strings.Contains(err.Error(), "deadlock") {
				t.Fatalf("close left the sender to the deadlock reporter: %v", err)
			}
		})
	}
}

// TestSerializedOrder pins the (time, pid, seq) grant order on both
// engines, including same-cycle ties resolved by spawn order.
func TestSerializedOrder(t *testing.T) {
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) {
			sim := mk()
			var order []string
			add := func(tag string) func() { return func() { order = append(order, tag) } }
			// Spawn in an order where pid order != spawn-time call order.
			sim.Spawn("p0", func(p *Process) error {
				p.Advance(5)
				p.Serialized(add("p0@5"))
				return nil
			})
			sim.Spawn("p1", func(p *Process) error {
				p.Advance(5)
				p.Serialized(add("p1@5"))
				return nil
			})
			sim.Spawn("p2", func(p *Process) error {
				p.Advance(2)
				p.Serialized(add("p2@2"))
				p.Advance(3)
				p.Serialized(add("p2@5"))
				return nil
			})
			if _, err := sim.Run(); err != nil {
				t.Fatal(err)
			}
			want := "p2@2,p0@5,p1@5,p2@5"
			if got := strings.Join(order, ","); got != want {
				t.Fatalf("grant order = %s, want %s", got, want)
			}
		})
	}
}

// TestParallelBackpressureTiming pins the virtual-time backpressure rule:
// a send's completion time is the dequeue time that freed its slot, even
// when the receiver ran far ahead in wall-clock terms.
func TestParallelBackpressureTiming(t *testing.T) {
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) {
			sim := mk()
			ch := NewChan[int](sim, "c", 1, 0)
			var sendTimes []Time
			sender := sim.Spawn("producer", func(p *Process) error {
				for i := 0; i < 3; i++ {
					ch.Send(p, i)
					sendTimes = append(sendTimes, p.Now())
				}
				ch.Close(p)
				return nil
			})
			recver := sim.Spawn("consumer", func(p *Process) error {
				for {
					_, ok := ch.Recv(p)
					if !ok {
						return nil
					}
					p.Advance(10)
				}
			})
			ch.BindSender(sender).BindRecver(recver)
			if _, err := sim.Run(); err != nil {
				t.Fatal(err)
			}
			if len(sendTimes) != 3 || sendTimes[0] != 0 || sendTimes[1] != 0 || sendTimes[2] != 10 {
				t.Fatalf("send times = %v", sendTimes)
			}
		})
	}
}

// TestSelectWithFinishedSender is the regression test for the
// finished-sender frontier: a Select input whose bound sender returned
// without closing the channel must not pin the frontier at the sender's
// final clock — the committed head on another channel wins on both
// engines (the pathological process is simply never heard from again).
func TestSelectWithFinishedSender(t *testing.T) {
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) {
			sim := mk()
			a := NewChan[int](sim, "a", 2, 1)
			b := NewChan[int](sim, "b", 2, 1)
			a.BindSender(sim.Spawn("pa", func(p *Process) error {
				p.Advance(100)
				a.Send(p, 42)
				a.Close(p)
				return nil
			}))
			b.BindSender(sim.Spawn("pb", func(p *Process) error {
				p.Advance(5)
				return nil // finishes without ever sending or closing b
			}))
			got := -2
			var at Time
			sel := sim.Spawn("sel", func(p *Process) error {
				got = Select(p, a, b)
				at = p.Now()
				if got == 0 {
					if v, ok := a.Recv(p); !ok || v != 42 {
						return errTest
					}
				}
				return nil
			})
			a.BindRecver(sel)
			b.BindRecver(sel)
			if _, err := sim.Run(); err != nil {
				t.Fatal(err)
			}
			if got != 0 || at != 101 {
				t.Fatalf("select = %d at t=%d, want channel a at t=101", got, at)
			}
		})
	}
}

// TestSerializedPanicUnwinds: a panic inside a Serialized critical
// section must surface as a process error on both engines — under the
// parallel engine this means the engine lock is released on unwind
// rather than wedging Run forever.
func TestSerializedPanicUnwinds(t *testing.T) {
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) {
			sim := mk()
			sim.Spawn("boomer", func(p *Process) error {
				p.Advance(3)
				p.Serialized(func() { panic("model invariant violated") })
				return nil
			})
			sim.Spawn("bystander", func(p *Process) error {
				p.Advance(1)
				p.Serialized(func() {})
				p.Advance(100)
				return nil
			})
			_, err := sim.Run()
			if err == nil || !strings.Contains(err.Error(), "model invariant violated") {
				t.Fatalf("err = %v, want surfaced panic", err)
			}
		})
	}
}

// TestSelectRequiresBoundSender: a Select input that is empty, open and
// has no sender (neither bound nor inferred from a send) panics on both
// engines, since its frontier is unknown.
func TestSelectRequiresBoundSender(t *testing.T) {
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) {
			sim := mk()
			a := NewChan[int](sim, "a", 1, 1)
			orphan := NewChan[int](sim, "orphan", 1, 1)
			pa := sim.Spawn("pa", func(p *Process) error {
				a.Send(p, 1)
				a.Close(p)
				return nil
			})
			a.BindSender(pa)
			sim.Spawn("sel", func(p *Process) error {
				Select(p, a, orphan)
				return nil
			})
			_, err := sim.Run()
			if err == nil || !strings.Contains(err.Error(), `Select requires a bound sender on channel "orphan"`) {
				t.Fatalf("err = %v, want the unbound-sender panic", err)
			}
		})
	}
}
