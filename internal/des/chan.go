//lint:hotpath per-event code: names stay lazy (func() string thunks), strings only materialize in panics and diagnostics

package des

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// chanCore is the type-erased state of a channel: the metadata ring, the
// endpoint bindings, and the per-engine waiter bookkeeping. The value ring
// lives in the generic Chan[T] wrapper, indexed by the same slots.
//
// The ring never holds more than cap elements: a send may only complete
// once dequeue #(n-cap) has happened (n = the send's sequence number), and
// it completes at virtual time max(sender clock, time of that dequeue) —
// recorded in deqTimes — so backpressure timing is a pure function of the
// deterministic per-process clock traces, never of wall-clock interleaving.
type chanCore struct {
	sim     *Simulation
	name    string
	nameFn  func() string // lazy name (NewChanFn); see label
	cap     int
	latency Time

	// Endpoint bindings. The sequential engine infers endpoints
	// dynamically (and panics on MPSC misuse); the parallel engine
	// requires a bound sender on any channel used by Select, and uses
	// both bindings for conservative frontier/bound propagation. Atomic:
	// lazily bound on first use under the channel mutex but read
	// lock-free by the evaluator.
	sender atomic.Pointer[Process]
	recver atomic.Pointer[Process]

	// Ring state. Guarded by mu under the parallel engine; by the
	// one-process-at-a-time discipline under the sequential engine.
	mu        sync.Mutex
	ready     []Time // visibility time per slot
	head      int
	count     int
	closed    bool
	closeTime Time

	// deqTimes[(k-1)%cap] is the virtual time of dequeue #k.
	deqTimes []Time
	nSent    int64
	nRecv    int64

	// Sequential-engine waiters.
	seqRecvWaiter *Process
	seqSendWaiter *Process

	// Parallel-engine waiters.
	recvParked *Process
	sendParked *Process
	// sendParkedNeed is the nRecv value the parked sender waits for.
	sendParkedNeed int64
	selParked      []*Process

	// Atomically published snapshots read lock-free by the parallel
	// engine's conservative evaluator. All are monotone enough to be
	// valid conservative bounds under stale reads: headReadyA only
	// shrinks when an item is already present (and any present item's
	// ready time is >= the sender's published frontier), closedA is
	// written after closeTimeA.
	headReadyA atomic.Uint64 // timeInf when empty
	closedA    atomic.Bool
	closeTimeA atomic.Uint64
	nRecvA     atomic.Int64
}

func (c *chanCore) init(sim *Simulation, name string, capacity int, latency Time) {
	c.initOn(sim, name, capacity, latency, make([]Time, capacity), make([]Time, capacity))
}

// initOn is init with caller-provided ring metadata storage (len must be
// capacity each); the session arena carves many channels out of one slab.
func (c *chanCore) initOn(sim *Simulation, name string, capacity int, latency Time, ready, deq []Time) {
	c.sim = sim
	c.name = name
	c.cap = capacity
	c.latency = latency
	c.ready = ready
	c.deqTimes = deq
	c.headReadyA.Store(uint64(timeInf))
}

// label returns the channel's diagnostic name, formatting it on demand
// for lazily named channels. Diagnostics-only; never called on hot paths.
func (c *chanCore) label() string {
	if c.nameFn != nil {
		return c.nameFn()
	}
	return c.name
}

// tail returns the slot index the next send will fill. It is stable under
// concurrent dequeues: pops advance head and shrink count together, so
// head+count (mod cap) is invariant.
func (c *chanCore) tail() int { return (c.head + c.count) % c.cap }

// push appends metadata for the element just written to the tail slot.
// Callers hold the ring (engine-specific) exclusivity.
func (c *chanCore) push(ready Time) {
	c.ready[c.tail()] = ready
	c.count++
	c.nSent++
}

// pop releases the head slot, recording the dequeue's virtual time.
func (c *chanCore) pop(at Time) {
	c.deqTimes[int(c.nRecv)%c.cap] = at
	c.nRecv++
	c.head++
	if c.head == c.cap {
		c.head = 0
	}
	c.count--
}

// publish stores the ring's lock-free snapshot (head visibility time and
// dequeue count) for the parallel engine's evaluator. The parallel engine
// calls it under mu after every push and pop; the sequential engine never
// reads the snapshot, so its sends and receives do no atomic store.
func (c *chanCore) publish() {
	c.nRecvA.Store(c.nRecv)
	hr := timeInf
	if c.count > 0 {
		hr = c.ready[c.head]
	}
	c.headReadyA.Store(uint64(hr))
}

// markClosed publishes the closed state. closeTime must be stored before
// the flag so lock-free readers observing closedA see a valid closeTimeA.
func (c *chanCore) markClosed(at Time) {
	c.closeTime = at
	c.closeTimeA.Store(uint64(at))
	c.closedA.Store(true)
	c.closed = true
}

// sendDeadline returns the earliest virtual time send #n (1-based) may
// complete given recorded dequeues, assuming its slot dependency is
// satisfied (nRecv >= n-cap).
func (c *chanCore) sendDeadline(n int64) (Time, bool) {
	need := n - int64(c.cap)
	if need <= 0 {
		return 0, true
	}
	if c.nRecv < need {
		return 0, false
	}
	return c.deqTimes[int(need-1)%c.cap], true
}

// Chan is a bounded single-producer single-consumer FIFO with a fixed
// latency, the DES analogue of an SDA hardware FIFO. Send blocks while the
// channel holds Cap in-flight elements (backpressure); Recv blocks until
// the head element's ready time.
type Chan[T any] struct {
	core chanCore
	vals []T
}

// NewChan creates a channel. cap must be >= 1.
func NewChan[T any](sim *Simulation, name string, capacity int, latency Time) *Chan[T] {
	if capacity < 1 {
		panic(fmt.Sprintf("des: channel %q capacity must be >= 1", name))
	}
	c := &Chan[T]{vals: make([]T, capacity)}
	c.core.init(sim, name, capacity, latency)
	return c
}

// NewChanFn creates a channel with a lazily formatted name: nameFn runs
// only when diagnostics need the name, so building large graphs costs no
// per-channel string formatting. cap must be >= 1.
func NewChanFn[T any](sim *Simulation, nameFn func() string, capacity int, latency Time) *Chan[T] {
	if capacity < 1 {
		panic(fmt.Sprintf("des: channel %q capacity must be >= 1", nameFn()))
	}
	c := &Chan[T]{vals: make([]T, capacity)}
	c.core.init(sim, "", capacity, latency)
	c.core.nameFn = nameFn
	return c
}

// InitOn (re)initializes c in place as a fresh, lazily named channel of
// sim on caller-provided backing storage: ready, deq, and vals must each
// have length capacity. A caller that runs many channels carves the Chan
// structs from one []Chan[T] and their rings from a few pooled slabs,
// reusing both across simulations, instead of allocating a struct and
// three slices per channel. The caller owns the storage and must not
// reuse c or recycle the slabs until every process of the simulation has
// finished (i.e. after Run returns); values are the caller's to clear
// before reuse. cap must be >= 1.
func (c *Chan[T]) InitOn(sim *Simulation, nameFn func() string, capacity int, latency Time, ready, deq []Time, vals []T) {
	if capacity < 1 {
		panic(fmt.Sprintf("des: channel %q capacity must be >= 1", nameFn()))
	}
	*c = Chan[T]{vals: vals}
	c.core.initOn(sim, "", capacity, latency, ready, deq)
	c.core.nameFn = nameFn
}

// Name returns the channel name.
func (c *Chan[T]) Name() string { return c.core.label() }

// Sent returns the number of elements sent so far.
func (c *Chan[T]) Sent() int64 { return c.core.nSent }

// BindSender declares p as the channel's only sending process. The
// parallel engine requires the binding on any channel used by Select (the
// sender's local clock is the channel's conservative time frontier); the
// sequential engine uses it only for earlier misuse diagnostics.
func (c *Chan[T]) BindSender(p *Process) *Chan[T] {
	c.core.sender.Store(p)
	// The parallel engine's sharded Select triggers walk a sender's
	// output channels; register the edge at bind time so the hot path
	// never has to. The sequential engine needs no registry.
	if pe, ok := p.sim.eng.(*parEngine); ok {
		pe.registerOut(&c.core, p)
	}
	return c
}

// BindRecver declares p as the channel's only receiving process.
func (c *Chan[T]) BindRecver(p *Process) *Chan[T] { c.core.recver.Store(p); return c }

// Send enqueues v, blocking the process while the channel is full.
func (c *Chan[T]) Send(p *Process, v T) {
	slot := p.sim.eng.sendReserve(&c.core, p)
	c.vals[slot] = v
	p.sim.eng.sendPublish(&c.core, p)
}

// Recv dequeues the next element. ok is false when the channel is closed
// and drained. The process blocks until an element is visible.
func (c *Chan[T]) Recv(p *Process) (T, bool) {
	slot, ok := p.sim.eng.recvWait(&c.core, p)
	if !ok {
		var zero T
		return zero, false
	}
	v := c.vals[slot]
	var zero T
	c.vals[slot] = zero
	p.sim.eng.recvRelease(&c.core, p)
	return v, true
}

// RecvUntil dequeues a run of elements, handing each to f in turn, and
// stops after the first element for which f returns false (that element is
// consumed too). It returns false when the channel is closed and drained
// before f stopped the run.
//
// The virtual-time trace is identical to calling Recv in a loop with no
// Advance between calls: each dequeue is recorded at the same time the
// per-element path would record it. The win is mechanical — consecutive
// already-visible elements are handed out without a park/yield round-trip
// per element — so results are byte-identical while tight drain loops
// (e.g. reading a tensor subtree) skip most of the context-switch cost.
func (c *Chan[T]) RecvUntil(p *Process, f func(T) bool) bool {
	slot, ok := p.sim.eng.recvWait(&c.core, p)
	for {
		if !ok {
			return false
		}
		v := c.vals[slot]
		var zero T
		c.vals[slot] = zero
		if !f(v) {
			p.sim.eng.recvRelease(&c.core, p)
			return true
		}
		slot, ok = p.sim.eng.recvMore(&c.core, p)
		if !ok {
			// Next element not immediately visible (or none yet): take the
			// full blocking path, which also detects close-and-drained.
			slot, ok = p.sim.eng.recvWait(&c.core, p)
		}
	}
}

// Close marks the channel closed. Parked receivers — and parked senders,
// which then observe the canonical "send on closed channel" panic instead
// of a deadlock — are woken so they can see the close.
func (c *Chan[T]) Close(p *Process) { p.sim.eng.closeChan(&c.core, p) }

// Selectable is the type-erased channel view used by Select.
type Selectable interface {
	chanCoreOf() *chanCore
}

func (c *Chan[T]) chanCoreOf() *chanCore { return &c.core }

// Select blocks until one of the channels has a visible element, advancing
// time as needed, and returns its index. The earliest-visible head wins;
// ties at the same visibility time resolve to the lowest index in the call,
// so Select implements the "in the order the input is available"
// semantics of EagerMerge deterministically in both engines. It returns
// -1 when every channel is closed and drained.
func Select(p *Process, chans ...Selectable) int {
	if len(chans) == 0 {
		return -1
	}
	// Reuse the process's scratch buffer: a Select in a drain loop would
	// otherwise allocate a slice per call. Safe because both engines are
	// done with the cores slice by the time sel returns.
	cores := p.selScratch[:0]
	for _, ch := range chans {
		cores = append(cores, ch.chanCoreOf())
	}
	p.selScratch = cores
	return p.sim.eng.sel(p, cores)
}
