package des

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Time is the virtual clock, in cycles.
type Time uint64

// timeInf is the "never" sentinel used by the conservative engine.
const timeInf = ^Time(0)

var errAborted = errors.New("des: simulation aborted")

// Process is the handle a dataflow block uses to interact with virtual
// time. All methods must be called from the process's own body.
type Process struct {
	sim    *Simulation
	id     int
	name   string
	nameFn func() string // lazy name (SpawnFn); formatted only for diagnostics
	fn     func(p *Process) error
	err    error

	// selScratch is the reusable core-pointer buffer behind Select, so a
	// Select in a loop does not allocate per call. Only the process's own
	// body touches it.
	selScratch []*chanCore

	// park is what the process is blocked on, and finishClock its local
	// clock when its body returned; both engines keep them.
	park        parkState
	finishClock Time

	seq seqProc // sequential-engine state
	par parProc // parallel-engine state
}

// Name returns the process name given at spawn time. For SpawnFn
// processes the name is formatted on each call; Name is a diagnostics
// API, not a hot path.
func (p *Process) Name() string {
	if p.nameFn != nil {
		return p.nameFn()
	}
	return p.name
}

// ID returns the process's spawn index. It is the stable tie-break key
// used to order same-cycle Serialized critical sections.
func (p *Process) ID() int { return p.id }

// Now returns the process's local virtual time: the sum of its Advances,
// lifted by the channel operations that bridge time (a receive adopts the
// element's ready time, a backpressured send the time its slot was
// freed). It is the same under both engines.
func (p *Process) Now() Time { return p.sim.eng.now(p) }

// Advance moves the process's view of time forward by d cycles.
func (p *Process) Advance(d Time) {
	if d == 0 {
		return
	}
	p.sim.eng.advance(p, d)
}

// AdvanceTo moves to an absolute time, if it is in the future.
func (p *Process) AdvanceTo(t Time) { p.sim.eng.advanceTo(p, t) }

// Serialized runs fn as a globally ordered critical section: across the
// whole simulation, Serialized bodies execute one at a time in
// (virtual time, process ID, per-process call index) order, in both
// engines. Shared-resource models (the HBM bus, scratchpad accounting)
// use it so that same-cycle contention resolves identically no matter
// which engine runs the program or how goroutines are scheduled.
//
// fn must not call channel operations, Advance, or Select; it should
// only read p.Now() and mutate shared model state.
func (p *Process) Serialized(fn func()) { p.sim.eng.serialized(p, fn) }

// engine is the execution strategy behind a Simulation.
type engine interface {
	run() (Time, error)
	now(p *Process) Time
	advance(p *Process, d Time)
	advanceTo(p *Process, t Time)
	serialized(p *Process, fn func())

	// Channel protocol. Send is two-phase so the value slot is written
	// between reserve and publish; Recv is two-phase so the value is read
	// out before the slot is released back to the sender.
	sendReserve(c *chanCore, p *Process) int
	sendPublish(c *chanCore, p *Process)
	recvWait(c *chanCore, p *Process) (int, bool)
	recvRelease(c *chanCore, p *Process)
	// recvMore combines recvRelease with an opportunistic peek: when the
	// next head element is already visible at the receiver's current time
	// it is handed out without a park/yield round-trip. Timing-equivalent
	// to recvRelease followed by recvWait that finds the element visible;
	// ok=false means the caller must fall back to recvWait.
	recvMore(c *chanCore, p *Process) (int, bool)
	closeChan(c *chanCore, p *Process)
	sel(p *Process, cores []*chanCore) int

	// schedStats reports the engine's scheduler counters for the
	// completed run.
	schedStats() SchedStats
}

// Simulation owns the processes and the engine executing them.
type Simulation struct {
	procs []*Process
	// slab is the chunk Spawn carves processes from. A full chunk is
	// replaced, never grown, so handed-out *Process pointers stay valid.
	slab    []Process
	eng     engine
	started bool
	finish  Time
}

// New creates an empty simulation on the sequential reference engine.
func New() *Simulation { return NewWithWorkers(1) }

// NewWithWorkers creates an empty simulation. workers <= 1 selects the
// sequential engine; workers >= 2 selects the DAM-style conservative
// parallel engine (the value is advisory — the parallel engine runs one
// goroutine per process and relies on the Go scheduler to spread them
// over up to GOMAXPROCS cores).
func NewWithWorkers(workers int) *Simulation {
	s := &Simulation{}
	if workers > 1 {
		s.eng = newParEngine(s)
	} else {
		s.eng = &seqEngine{sim: s}
	}
	return s
}

// Spawn registers a process. The function runs when Run is called; its
// returned error aborts the simulation. Spawn must not be called after Run.
func (s *Simulation) Spawn(name string, fn func(p *Process) error) *Process {
	p := s.newProc(fn)
	p.name = name
	return p
}

// SpawnFn registers a process with a lazily formatted name: nameFn runs
// only when diagnostics (deadlock reports, process errors) need the name,
// so spawning thousands of processes per run costs no string formatting.
func (s *Simulation) SpawnFn(nameFn func() string, fn func(p *Process) error) *Process {
	p := s.newProc(fn)
	p.nameFn = nameFn
	return p
}

// newProc carves the next process from the slab, starting a new chunk
// (sized to the processes spawned so far, 4 to 256) when it is full.
func (s *Simulation) newProc(fn func(p *Process) error) *Process {
	if s.started {
		panic("des: Spawn after Run")
	}
	if len(s.slab) == cap(s.slab) {
		s.slab = make([]Process, 0, min(max(len(s.procs), 4), 256))
	}
	s.slab = s.slab[:len(s.slab)+1]
	p := &s.slab[len(s.slab)-1]
	p.sim, p.id, p.fn = s, len(s.procs), fn
	s.procs = append(s.procs, p)
	return p
}

// Run executes the simulation to completion and returns the final virtual
// time (the time at which the last process finished) plus the first process
// error or a deadlock error.
func (s *Simulation) Run() (Time, error) {
	if s.started {
		panic("des: Run called twice")
	}
	s.started = true
	finish, err := s.eng.run()
	s.finish = finish
	return finish, err
}

// SchedStats returns the engine's scheduler counters for the completed
// run. The parallel engine fills all of them; the sequential engine fills
// Woken, Kicks, Grants and GrantFastPath. See SchedStats for the
// glossary.
func (s *Simulation) SchedStats() SchedStats { return s.eng.schedStats() }

// Now returns the final virtual time after Run: the latest clock at
// which a process finished. Both engines keep a local clock per process
// (see Process.Now), so there is no global time during a run.
func (s *Simulation) Now() Time { return s.finish }

// blockedRef is one blocked process in a deadlock report: its name plus
// the verb and resource it waits on. Blocking records only a static verb
// and channel pointers; refs — and their strings — are materialized only
// once deadlock is certain, never on the block/unblock hot path.
type blockedRef struct {
	name string
	verb string // "recv", "send", "select", "serialized", ...
	on   string // waited-on resource label; "" when not channel-shaped
}

// selectLabel names the channel set a Select waits on, for grouping
// deadlock reports. Diagnostics-only.
func selectLabel(cores []*chanCore) string {
	var b strings.Builder
	b.WriteString("select(")
	for i, c := range cores {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.label())
	}
	b.WriteString(")")
	return b.String()
}

// deadlockError formats the canonical deadlock report, grouping the
// blocked processes by the resource they wait on: every process stuck on
// one channel appears under that channel's heading, which is usually the
// fastest way to see which endpoint of a cycle never delivered.
func deadlockError(at Time, refs []blockedRef) error {
	type group struct {
		key     string
		members []string
	}
	byKey := map[string]int{}
	var groups []group
	for _, r := range refs {
		key := r.on
		member := r.name
		if key == "" {
			key = r.verb
		} else if r.verb != "" {
			member = r.name + " (" + r.verb + ")"
		}
		i, ok := byKey[key]
		if !ok {
			i = len(groups)
			byKey[key] = i
			groups = append(groups, group{key: key})
		}
		groups[i].members = append(groups[i].members, member)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].key < groups[j].key })
	var b strings.Builder
	fmt.Fprintf(&b, "des: deadlock at t=%d; blocked on: ", at)
	for i := range groups {
		g := &groups[i]
		sort.Strings(g.members)
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%s: %v", g.key, g.members)
	}
	return errors.New(b.String())
}

// procError wraps a process's own failure.
func procError(p *Process) error {
	return fmt.Errorf("process %q: %w", p.Name(), p.err)
}

// recoverAsError converts a recovered panic value into the process error,
// keeping engine-initiated aborts silent.
func recoverAsError(p *Process, r any) {
	if r == nil {
		return
	}
	if err, ok := r.(error); ok && errors.Is(err, errAborted) {
		p.err = nil // aborted externally, not its own fault
		return
	}
	p.err = fmt.Errorf("des: process %q panicked: %v", p.Name(), r)
}
