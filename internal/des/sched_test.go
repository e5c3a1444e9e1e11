package des

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// --- randomized many-channel/many-waiter stress ------------------------
//
// A three-stage graph sized to park most of its processes most of the
// time: nProd producers feed private channels, nProd/4 mergers Select
// over groups of four and forward into per-merger channels (taking a
// Serialized critical section every few elements), and one consumer per
// merger drains with RecvUntil. Every parameter — advances, capacities,
// latencies, element counts — is drawn up front from a seeded generator,
// so both engines run the byte-identical workload. The test asserts
// byte-identical virtual-time traces across engines and that the
// parallel engine's scheduler work per clock lift stays bounded as the
// parked population grows (the pre-shard engine's scans grew linearly
// with it).

type stressSpec struct {
	nProd     int
	prodVals  [][]int
	prodSteps [][]Time
	aCap      []int
	aLat      []Time
	bCap      []int
	bLat      []Time
	serEvery  []int
	mergeAdv  [][]Time
}

func genStress(nProd int, seed int64) stressSpec {
	rng := rand.New(rand.NewSource(seed))
	sp := stressSpec{nProd: nProd}
	next := 1
	for i := 0; i < nProd; i++ {
		n := 6 + rng.Intn(14)
		vals := make([]int, n)
		steps := make([]Time, n)
		for j := range vals {
			vals[j] = next
			next++
			steps[j] = Time(rng.Intn(4))
		}
		sp.prodVals = append(sp.prodVals, vals)
		sp.prodSteps = append(sp.prodSteps, steps)
		sp.aCap = append(sp.aCap, 1+rng.Intn(4))
		sp.aLat = append(sp.aLat, Time(rng.Intn(3)))
	}
	for j := 0; j < nProd/4; j++ {
		sp.bCap = append(sp.bCap, 1+rng.Intn(4))
		sp.bLat = append(sp.bLat, Time(rng.Intn(3)))
		sp.serEvery = append(sp.serEvery, 1+rng.Intn(5))
		adv := make([]Time, 8)
		for k := range adv {
			adv[k] = Time(rng.Intn(3))
		}
		sp.mergeAdv = append(sp.mergeAdv, adv)
	}
	return sp
}

func runStress(t *testing.T, workers int, sp stressSpec) (string, SchedStats) {
	t.Helper()
	sim := NewWithWorkers(workers)
	nM := sp.nProd / 4
	hub := 0

	as := make([]*Chan[int], sp.nProd)
	for i := range as {
		as[i] = NewChan[int](sim, fmt.Sprintf("a%d", i), sp.aCap[i], sp.aLat[i])
	}
	bs := make([]*Chan[int], nM)
	for j := range bs {
		bs[j] = NewChan[int](sim, fmt.Sprintf("b%d", j), sp.bCap[j], sp.bLat[j])
	}
	traces := make([]strings.Builder, nM)

	for i := 0; i < sp.nProd; i++ {
		i := i
		p := sim.Spawn(fmt.Sprintf("prod%d", i), func(p *Process) error {
			for j, v := range sp.prodVals[i] {
				p.Advance(sp.prodSteps[i][j])
				as[i].Send(p, v)
			}
			as[i].Close(p)
			return nil
		})
		as[i].BindSender(p)
	}
	for j := 0; j < nM; j++ {
		j := j
		group := as[4*j : 4*j+4]
		m := sim.Spawn(fmt.Sprintf("merge%d", j), func(p *Process) error {
			sels := make([]Selectable, len(group))
			for k, c := range group {
				sels[k] = c
			}
			k := 0
			for {
				idx := Select(p, sels...)
				if idx < 0 {
					bs[j].Close(p)
					return nil
				}
				v, ok := group[idx].Recv(p)
				if !ok {
					continue
				}
				if k%sp.serEvery[j] == 0 {
					p.Serialized(func() {
						// Order-sensitive mix: any change in the global
						// Serialized grant order changes the result.
						hub = hub*31 + int(p.Now()) + v
					})
				}
				bs[j].Send(p, v)
				p.Advance(sp.mergeAdv[j][k%len(sp.mergeAdv[j])])
				k++
			}
		})
		for _, c := range group {
			c.BindRecver(m)
		}
		bs[j].BindSender(m)
		c := sim.Spawn(fmt.Sprintf("cons%d", j), func(p *Process) error {
			bs[j].RecvUntil(p, func(v int) bool {
				fmt.Fprintf(&traces[j], "%d@%d;", v, p.Now())
				return true
			})
			fmt.Fprintf(&traces[j], "EOF@%d", p.Now())
			return nil
		})
		bs[j].BindRecver(c)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	var out strings.Builder
	for j := range traces {
		fmt.Fprintf(&out, "cons%d{%s}\n", j, traces[j].String())
	}
	fmt.Fprintf(&out, "hub=%d;end=%d", hub, sim.Now())
	return out.String(), sim.SchedStats()
}

func TestSchedStressEquivalence(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	sizes := []int{8, 32, 128}
	for _, seed := range seeds {
		splBySize := make([]float64, 0, len(sizes))
		for _, n := range sizes {
			t.Run(fmt.Sprintf("seed=%d/nprod=%d", seed, n), func(t *testing.T) {
				sp := genStress(n, seed)
				seqTrace, seqStats := runStress(t, 1, sp)
				parTrace, parStats := runStress(t, 8, sp)
				if seqTrace != parTrace {
					t.Fatalf("engine traces diverge:\nseq:\n%s\npar:\n%s", seqTrace, parTrace)
				}
				// The sequential engine does no wake-up scans, and here it
				// always has a runnable process until the end, so it never
				// runs a quiescent evaluation; it grants the same Serialized
				// sections.
				if seqStats.Kicks != 0 || seqStats.Scanned != 0 {
					t.Fatalf("sequential engine reported scan work: %+v", seqStats)
				}
				if seqStats.Grants != parStats.Grants {
					t.Errorf("grants: seq %d, par %d", seqStats.Grants, parStats.Grants)
				}
				spl := parStats.ScannedPerLift()
				splBySize = append(splBySize, spl)
				t.Logf("par: lifts=%d scanned=%d woken=%d grants=%d scanned/lift=%.3f",
					parStats.Lifts, parStats.Scanned, parStats.Woken, parStats.Grants, spl)
				// Absolute bound: scheduler work per lift must be O(1)-ish
				// (waiters on the touched endpoint), not O(parked). The
				// pre-shard engine measured 40-500+ here depending on size.
				if spl > 15 {
					t.Errorf("scanned/lift = %.2f at nprod=%d, want <= 15", spl, n)
				}
				if parStats.Lifts == 0 || parStats.Grants == 0 {
					t.Errorf("stress workload lost its shape: %+v", parStats)
				}
			})
		}
		// Growth bound: a 16x larger parked population must not multiply
		// per-lift scan work the way a global scan would (16x).
		if len(splBySize) == len(sizes) {
			small, large := splBySize[0], splBySize[len(splBySize)-1]
			if large > 4*small+5 {
				t.Errorf("seed %d: scanned/lift grew from %.2f (nprod=8) to %.2f (nprod=128): scan work scales with parked population", seed, small, large)
			}
		}
	}
}

// --- non-deadlock-path laziness ---------------------------------------
//
// Parking records a verb and channel pointers; names and "blocked on"
// strings are materialized only when a deadlock report actually needs
// them. The lazy-name counter proves no diagnostic formatting happens on
// a run that parks constantly but never deadlocks, and the allocation
// budget holds the parallel engine's whole park/unpark path (send, recv,
// select, serialized) at amortized zero allocations per element.
func TestParallelParkPathLazyAndAllocFree(t *testing.T) {
	const n = 2000
	nameCalls := 0
	run := func() {
		sim := NewWithWorkers(4)
		name := func() string { nameCalls++; return "lazy" }
		ch := NewChanFn[int](sim, name, 2, 1) // cap 2: parks both endpoints
		out := NewChanFn[int](sim, name, 2, 1)
		var got int
		prod := sim.SpawnFn(name, func(p *Process) error {
			for j := 0; j < n; j++ {
				p.Advance(1)
				ch.Send(p, j)
			}
			ch.Close(p)
			return nil
		})
		ch.BindSender(prod)
		mid := sim.SpawnFn(name, func(p *Process) error {
			for {
				idx := Select(p, ch)
				if idx < 0 {
					out.Close(p)
					return nil
				}
				v, ok := ch.Recv(p)
				if !ok {
					continue
				}
				if v%64 == 0 {
					p.Serialized(func() { got += 0 })
				}
				out.Send(p, v)
			}
		})
		out.BindSender(mid)
		sim.SpawnFn(name, func(p *Process) error {
			out.RecvUntil(p, func(int) bool { got++; return true })
			return nil
		})
		if _, err := sim.Run(); err != nil {
			panic(err)
		}
		if got != n {
			panic("short read")
		}
	}
	run() // warm pools
	nameCalls = 0
	avg := testing.AllocsPerRun(5, run)
	if nameCalls != 0 {
		t.Errorf("lazy name formatted %d times on the non-deadlock path, want 0", nameCalls)
	}
	// Setup (simulation, channels, 3 goroutines, conds) costs a fixed
	// ~40 allocations; the per-element park/unpark path must stay at
	// amortized zero (0.01/element of jitter headroom).
	if budget := 80.0 + 0.01*n; avg > budget {
		t.Errorf("parallel park path: %.1f allocs/run over %d elements, budget %.1f", avg, n, budget)
	}
}

// --- grouped deadlock reports -----------------------------------------

// TestDeadlockReportGroupsByChannel pins the grouped report format on
// both engines: processes are listed under the resource they wait on
// (channel, select set, or bare verb), groups and members sorted.
func TestDeadlockReportGroupsByChannel(t *testing.T) {
	for name, mk := range engines() {
		t.Run(name, func(t *testing.T) {
			sim := mk()
			full := NewChan[int](sim, "full", 1, 0)
			empty := NewChan[int](sim, "empty", 1, 0)
			empty2 := NewChan[int](sim, "empty2", 1, 0)
			sender := sim.Spawn("p-send", func(p *Process) error {
				full.Send(p, 1)
				full.Send(p, 2) // cap 1, nobody drains: parks forever
				return nil
			})
			full.BindSender(sender)
			empty2.BindSender(sender) // bound but never sent to
			recv := sim.Spawn("p-recv", func(p *Process) error {
				_, _ = empty.Recv(p)
				return nil
			})
			empty.BindRecver(recv)
			sim.Spawn("p-sel", func(p *Process) error {
				Select(p, empty2)
				return nil
			})
			_, err := sim.Run()
			if err == nil || !strings.Contains(err.Error(), "deadlock") {
				t.Fatalf("err = %v", err)
			}
			for _, want := range []string{
				"chan empty: [p-recv (recv)]",
				"chan full: [p-send (send)]",
				"select(empty2): [p-sel (select)]",
			} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("deadlock report missing %q:\n%v", want, err)
				}
			}
		})
	}
}
