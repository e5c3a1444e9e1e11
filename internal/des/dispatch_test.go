package des

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/dispatch_order.txt")

// --- sequential dispatch-order pins -------------------------------------
//
// A seeded generator of small process networks: two to four pipelines
// (a source and zero to three relays, channel caps 1-4, latencies 0-3,
// per-element Advance of 0-5 cycles, relays taking a Serialized section
// every few elements) fan into one Select merger, which forwards to a
// sink. After every engine call each process appends (Now, pid) to one
// shared log. The sequential engine runs one process at a time, so the
// log's order is the engine's dispatch order. Its SHA-256 and the
// dispatch counters are pinned per seed in testdata/dispatch_order.txt:
// any change to which process runs next, or to how many round trips a
// run takes, moves a pin.

type stageSpec struct {
	cap int
	lat Time
	adv []Time // per-element Advance, cycled by element index
	ser int    // take a Serialized section every ser elements; 0 never
}

type pipeSpec struct {
	n      int
	period Time        // the source sends element j at AdvanceTo(j*period)
	stages []stageSpec // stages[0] is the source; each owns its output channel
}

type netSpec struct {
	pipes    []pipeSpec
	merge    stageSpec // Select fan-in; its output channel feeds the sink
	sinkAdv  []Time
	sinkBulk bool // drain with RecvUntil instead of a Recv loop
}

func genNet(seed int64) netSpec {
	rng := rand.New(rand.NewSource(seed))
	stage := func() stageSpec {
		st := stageSpec{cap: 1 + rng.Intn(4), lat: Time(rng.Intn(4))}
		for k := 1 + rng.Intn(3); k > 0; k-- {
			st.adv = append(st.adv, Time(rng.Intn(6)))
		}
		if rng.Intn(2) == 0 {
			st.ser = 1 + rng.Intn(3)
		}
		return st
	}
	var ns netSpec
	for i := 2 + rng.Intn(3); i > 0; i-- {
		ps := pipeSpec{n: 3 + rng.Intn(10), period: Time(rng.Intn(6))}
		for k := 1 + rng.Intn(4); k > 0; k-- {
			ps.stages = append(ps.stages, stage())
		}
		ns.pipes = append(ns.pipes, ps)
	}
	ns.merge = stage()
	ns.sinkAdv = stage().adv
	ns.sinkBulk = rng.Intn(2) == 0
	return ns
}

// runNet runs ns on the sequential engine and returns the dispatch log
// and the scheduler counters.
func runNet(t *testing.T, ns netSpec) ([]byte, SchedStats) {
	t.Helper()
	sim := New()
	var log []byte
	rec := func(p *Process) {
		log = binary.LittleEndian.AppendUint64(log, uint64(p.Now()))
		log = binary.LittleEndian.AppendUint32(log, uint32(p.ID()))
	}
	hub := 0
	serialize := func(p *Process, st stageSpec, k int) {
		if st.ser == 0 || k%st.ser != 0 {
			return
		}
		p.Serialized(func() {
			hub = hub*31 + int(p.Now())
			rec(p)
		})
		rec(p)
	}
	advance := func(p *Process, adv []Time, k int) {
		p.Advance(adv[k%len(adv)])
		rec(p)
	}

	tails := make([]Selectable, len(ns.pipes))
	for i, ps := range ns.pipes {
		var in *Chan[int]
		for s, st := range ps.stages {
			out := NewChan[int](sim, fmt.Sprintf("p%d.%d", i, s), st.cap, st.lat)
			if s == 0 {
				sim.Spawn(fmt.Sprintf("src%d", i), func(p *Process) error {
					rec(p)
					for j := 0; j < ps.n; j++ {
						p.AdvanceTo(Time(j) * ps.period)
						rec(p)
						advance(p, st.adv, j)
						out.Send(p, j)
						rec(p)
					}
					out.Close(p)
					rec(p)
					return nil
				})
			} else {
				src := in
				sim.Spawn(fmt.Sprintf("relay%d.%d", i, s), func(p *Process) error {
					rec(p)
					for k := 0; ; k++ {
						v, ok := src.Recv(p)
						rec(p)
						if !ok {
							break
						}
						serialize(p, st, k)
						advance(p, st.adv, k)
						out.Send(p, v)
						rec(p)
					}
					out.Close(p)
					rec(p)
					return nil
				})
			}
			in = out
		}
		tails[i] = in
	}

	merged := NewChan[int](sim, "merged", ns.merge.cap, ns.merge.lat)
	sim.Spawn("merge", func(p *Process) error {
		rec(p)
		for k := 0; ; k++ {
			idx := Select(p, tails...)
			rec(p)
			if idx < 0 {
				break
			}
			v, ok := tails[idx].(*Chan[int]).Recv(p)
			rec(p)
			if !ok {
				continue
			}
			serialize(p, ns.merge, k)
			advance(p, ns.merge.adv, k)
			merged.Send(p, v)
			rec(p)
		}
		merged.Close(p)
		rec(p)
		return nil
	})
	sim.Spawn("sink", func(p *Process) error {
		rec(p)
		if ns.sinkBulk {
			merged.RecvUntil(p, func(int) bool { rec(p); return true })
			rec(p)
			return nil
		}
		for k := 0; ; k++ {
			_, ok := merged.Recv(p)
			rec(p)
			if !ok {
				return nil
			}
			advance(p, ns.sinkAdv, k)
		}
	})
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	log = binary.LittleEndian.AppendUint64(log, uint64(hub))
	return log, sim.SchedStats()
}

const dispatchPins = "testdata/dispatch_order.txt"

// TestSeqDispatchOrderPinned checks each seed's dispatch log and counters
// against the committed pins. Regenerate with -update only for an
// intended change of dispatch order.
func TestSeqDispatchOrderPinned(t *testing.T) {
	var b strings.Builder
	b.WriteString("# seed sha256(dispatch log) entries Lifts LiftFastPath Woken Grants GrantFastPath\n")
	for seed := int64(1); seed <= 64; seed++ {
		log, st := runNet(t, genNet(seed))
		sum := sha256.Sum256(log)
		fmt.Fprintf(&b, "%d %s %d %d %d %d %d %d\n", seed, hex.EncodeToString(sum[:]), (len(log)-8)/12,
			st.Lifts, st.LiftFastPath, st.Woken, st.Grants, st.GrantFastPath)
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(dispatchPins, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(dispatchPins)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gs, ws := bufio.NewScanner(strings.NewReader(got)), bufio.NewScanner(strings.NewReader(string(want)))
	for gs.Scan() {
		w := ""
		if ws.Scan() {
			w = ws.Text()
		}
		if gs.Text() != w {
			t.Errorf("dispatch order moved:\n got %s\nwant %s", gs.Text(), w)
		}
	}
	if ws.Scan() {
		t.Errorf("pin file has extra lines from %q", ws.Text())
	}
}
