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

var update = flag.Bool("update", false, "rewrite the pin files under testdata")

// --- per-process trace pins ---------------------------------------------
//
// A seeded generator of small process networks: two to four pipelines
// (a source and zero to three relays, channel caps 1-4, latencies 1-4,
// per-element Advance of 0-5 cycles, relays taking a Serialized section
// every few elements) fan into one Select merger, which forwards to a
// sink. Every channel is bound to its sender and receiver. After every
// engine call a process appends its Now to its own log, and every
// Serialized section appends (pid, Now) to one shared log. The logs are
// the engine-independent result of a run: the per-process virtual-time
// traces and the global critical-section order. Their SHA-256 digests are
// pinned per seed in testdata/trace_pins.txt, and every engine must
// reproduce them.

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
		st := stageSpec{cap: 1 + rng.Intn(4), lat: 1 + Time(rng.Intn(4))}
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

// netTrace is one run's result: each process's Now log and the
// Serialized log. A sequential run also keeps the dispatch log, every
// process's log entries as (pid, Now) in the order they were made, and
// the engine's counters.
type netTrace struct {
	procs [][]byte
	ser   []byte
	order []byte
	stats SchedStats
}

// runNet runs ns on a simulation with the given worker count.
func runNet(t *testing.T, workers int, ns netSpec) netTrace {
	t.Helper()
	sim := NewWithWorkers(workers)
	var tr netTrace
	// tr.procs is sized before Run; each process appends only to its own log.
	rec := func(p *Process) {
		tr.procs[p.ID()] = binary.LittleEndian.AppendUint64(tr.procs[p.ID()], uint64(p.Now()))
		if workers == 1 {
			tr.order = binary.LittleEndian.AppendUint32(tr.order, uint32(p.ID()))
			tr.order = binary.LittleEndian.AppendUint64(tr.order, uint64(p.Now()))
		}
	}
	serialize := func(p *Process, st stageSpec, k int) {
		if st.ser == 0 || k%st.ser != 0 {
			return
		}
		p.Serialized(func() {
			tr.ser = binary.LittleEndian.AppendUint32(tr.ser, uint32(p.ID()))
			tr.ser = binary.LittleEndian.AppendUint64(tr.ser, uint64(p.Now()))
		})
		rec(p)
	}
	advance := func(p *Process, adv []Time, k int) {
		p.Advance(adv[k%len(adv)])
		rec(p)
	}

	tails := make([]Selectable, len(ns.pipes))
	var tailChans []*Chan[int]
	for i, ps := range ns.pipes {
		var in *Chan[int]
		for s, st := range ps.stages {
			out := NewChan[int](sim, fmt.Sprintf("p%d.%d", i, s), st.cap, st.lat)
			var proc *Process
			if s == 0 {
				proc = sim.Spawn(fmt.Sprintf("src%d", i), func(p *Process) error {
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
				proc = sim.Spawn(fmt.Sprintf("relay%d.%d", i, s), func(p *Process) error {
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
				src.BindRecver(proc)
			}
			out.BindSender(proc)
			in = out
		}
		tails[i] = in
		tailChans = append(tailChans, in)
	}

	merged := NewChan[int](sim, "merged", ns.merge.cap, ns.merge.lat)
	merge := sim.Spawn("merge", func(p *Process) error {
		rec(p)
		for k := 0; ; k++ {
			idx := Select(p, tails...)
			rec(p)
			if idx < 0 {
				break
			}
			v, ok := tailChans[idx].Recv(p)
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
	for _, c := range tailChans {
		c.BindRecver(merge)
	}
	merged.BindSender(merge)
	sink := sim.Spawn("sink", func(p *Process) error {
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
	merged.BindRecver(sink)
	tr.procs = make([][]byte, len(sim.procs))
	if _, err := sim.Run(); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	tr.stats = sim.SchedStats()
	return tr
}

// pinLine renders a trace as "sha(ser) sha(proc0) sha(proc1) ...", each
// digest cut to its first 8 bytes.
func (tr netTrace) pinLine() string {
	short := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:8])
	}
	parts := []string{short(tr.ser)}
	for _, l := range tr.procs {
		parts = append(parts, short(l))
	}
	return strings.Join(parts, " ")
}

const (
	tracePins  = "testdata/trace_pins.txt"
	traceSeeds = 200
)

// TestSeqTracePinned checks each seed's per-process traces and
// Serialized order against the committed pins, on the sequential engine
// and on the parallel engine with two workers; one subtest per seed.
// The pins were generated on the global-clock sequential engine that
// preceded the local-clock one. Regenerate with -update only for an
// intended change of the engines' virtual-time semantics.
func TestSeqTracePinned(t *testing.T) {
	want := map[string]string{}
	if !*update {
		f, err := os.ReadFile(tracePins)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(strings.NewReader(string(f)))
		for sc.Scan() {
			if seed, line, ok := strings.Cut(sc.Text(), " "); ok && seed != "#" {
				want[seed] = line
			}
		}
		if len(want) != traceSeeds {
			t.Fatalf("%s pins %d seeds, want %d", tracePins, len(want), traceSeeds)
		}
	}
	var b strings.Builder
	b.WriteString("# seed sha256(serialized log) sha256(process 0 log) ... (first 8 bytes each)\n")
	for seed := int64(1); seed <= traceSeeds; seed++ {
		name := fmt.Sprint(seed)
		t.Run(name, func(t *testing.T) {
			ns := genNet(seed)
			got := runNet(t, 1, ns).pinLine()
			fmt.Fprintf(&b, "%s %s\n", name, got)
			if par := runNet(t, 2, ns).pinLine(); par != got {
				t.Errorf("parallel engine diverges:\n seq %s\n par %s", got, par)
			}
			if !*update && got != want[name] {
				t.Errorf("trace moved:\n got %s\nwant %s", got, want[name])
			}
		})
	}
	if *update {
		if err := os.WriteFile(tracePins, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

const dispatchPins = "testdata/dispatch_order.txt"

// TestSeqDispatchOrderPinned checks each seed's sequential dispatch log
// and work counters against the committed pins. The dispatch order is
// the local-clock engine's (lowest (clock, pid) first, a process running
// until it blocks); unlike the traces it is not shared with the parallel
// engine. Regenerate with -update only for an intended change of
// dispatch order.
func TestSeqDispatchOrderPinned(t *testing.T) {
	var b strings.Builder
	b.WriteString("# seed sha256(dispatch log) entries Woken Kicks Grants GrantFastPath\n")
	for seed := int64(1); seed <= 64; seed++ {
		tr := runNet(t, 1, genNet(seed))
		sum := sha256.Sum256(tr.order)
		st := tr.stats
		fmt.Fprintf(&b, "%d %s %d %d %d %d %d\n", seed, hex.EncodeToString(sum[:]), len(tr.order)/12,
			st.Woken, st.Kicks, st.Grants, st.GrantFastPath)
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
