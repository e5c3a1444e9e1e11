//lint:hotpath per-event code: names stay lazy (func() string thunks), strings only materialize in panics and diagnostics

package des

import (
	"fmt"
	"sync"
)

// seqProc is the sequential-engine per-process state.
type seqProc struct {
	// clock is the process's local virtual clock.
	clock Time
	// next and stop drive the process body's coroutine (iter.Pull),
	// created on the process's first dispatch: next resumes it until it
	// yields or returns, stop unwinds a parked one. yield is the
	// coroutine's side of the switch, returning false once stop has
	// been called.
	next     func() (struct{}, bool)
	stop     func()
	yield    func(struct{}) bool
	finished bool
	aborted  bool
	serSeq   uint64
}

// runEntry is a runnable process, keyed by its local clock when it
// became runnable.
type runEntry struct {
	t Time
	p *Process
}

func runLess(a, b runEntry) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.p.id < b.p.id
}

// runQueue is a manual binary min-heap of runnable processes in
// (clock, pid) order.
type runQueue []runEntry

func (h *runQueue) push(r runEntry) {
	hs := append(*h, r)
	i := len(hs) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !runLess(hs[i], hs[parent]) {
			break
		}
		hs[i], hs[parent] = hs[parent], hs[i]
		i = parent
	}
	*h = hs
}

func (h *runQueue) pop() *Process {
	hs := *h
	top := hs[0].p
	n := len(hs) - 1
	hs[0] = hs[n]
	hs[n] = runEntry{}
	hs = hs[:n]
	*h = hs
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && runLess(hs[l], hs[small]) {
			small = l
		}
		if r < n && runLess(hs[r], hs[small]) {
			small = r
		}
		if small == i {
			break
		}
		hs[i], hs[small] = hs[small], hs[i]
		i = small
	}
	return top
}

// seqEngine runs the parallel engine's virtual-time protocol on one
// goroutine, one process at a time, with no locks and no atomics on the
// per-element path. Every process keeps a local clock: Advance bumps it,
// a receiver adopts the head element's ready time, and a backpressured
// sender resumes at its slot's recorded dequeue time. A process runs
// until it blocks on a channel (or waits for a Serialized grant); the
// dispatch loop then resumes the runnable process with the lowest
// (clock, pid). Select and Serialized are the conservative sync points,
// decided by the rules in sched.go.
//
// Each process body is a coroutine. run is the dispatch loop: it grants
// the pending Serialized head when no process can still act at or before
// its time, otherwise resumes the next runnable process, and takes
// control back when the process blocks (yield) or returns. A process
// switch is therefore two coroutine switches and never passes through
// the Go scheduler.
type seqEngine struct {
	sim       *Simulation
	runq      runQueue
	pending   serHeap
	selParked []*Process // processes parked in Select
	bounds    boundSolver
	live      int
	failed    bool // a process failed, or the run is being unwound
	deadlock  error
	stats     SchedStats
}

func (e *seqEngine) now(p *Process) Time { return p.seq.clock }

// The view the shared rules read.
func (e *seqEngine) clock(p *Process) Time             { return p.seq.clock }
func (e *seqEngine) done(p *Process) bool              { return p.seq.finished }
func (e *seqEngine) closedAt(c *chanCore) (Time, bool) { return c.closeTime, c.closed }
func (e *seqEngine) received(c *chanCore) int64        { return c.nRecv }
func (e *seqEngine) lift(p *Process, t Time)           { p.seq.clock = max(p.seq.clock, t) }
func (e *seqEngine) headReady(c *chanCore) Time {
	if c.count == 0 {
		return timeInf
	}
	return c.ready[c.head]
}

func (e *seqEngine) advance(p *Process, d Time) { p.seq.clock += d }

func (e *seqEngine) advanceTo(p *Process, t Time) { e.lift(p, t) }

// park blocks the running process on ps, yielding its coroutine to the
// dispatch loop until a waker makes it runnable again.
func (e *seqEngine) park(p *Process, ps parkState) {
	p.park = ps
	if !p.seq.yield(struct{}{}) {
		panic(errAborted)
	}
	p.park = parkState{}
}

// wake makes a parked process runnable at its clock lifted to t, the
// time it adopts when it resumes.
func (e *seqEngine) wake(q *Process, t Time) {
	if q.park.kind == parkSel {
		e.dropSelParked(q)
	}
	q.park.kind = parkNone
	e.lift(q, t)
	e.runq.push(runEntry{q.seq.clock, q})
}

// recheck wakes q if it is parked in a Select whose decision has become
// decidable, and reports whether it did.
func (e *seqEngine) recheck(q *Process) bool {
	if q.park.kind != parkSel {
		return false
	}
	_, lift, ok := selDecision(e, q.park.sels, nil)
	if ok {
		e.wake(q, lift)
	}
	return ok
}

func (e *seqEngine) dropSelParked(q *Process) {
	for i, s := range e.selParked {
		if s == q {
			e.selParked = append(e.selParked[:i], e.selParked[i+1:]...)
			return
		}
	}
}

// grantable reports whether a Serialized request at t is first in
// (time, pid, seq) order beyond doubt: no runnable process's clock is at
// or below t, and no parked selector could still commit at or below t.
// Parked processes need no check: whatever wakes one is a process this
// check already requires to be past t, and channel latency >= 1 puts the
// wake later still. A blocking selector whose decision has become
// decidable (its senders' clocks moved past its frontier) is woken here.
func (e *seqEngine) grantable(t Time) bool {
	if len(e.runq) > 0 && e.runq[0].t <= t {
		return false
	}
	for _, q := range e.selParked {
		// A parked selector can commit at the ready time of an element
		// it already holds once a frontier catches up. New elements can
		// only arrive from processes past t.
		if q.seq.clock <= t && selMinHead(e, q.park.sels) <= t {
			e.recheck(q)
			return false
		}
	}
	return true
}

func (e *seqEngine) serialized(p *Process, fn func()) {
	if p.seq.aborted {
		panic(errAborted)
	}
	e.stats.Grants++
	req := serReq{t: p.seq.clock, pid: p.id, seq: p.seq.serSeq, p: p}
	p.seq.serSeq++
	if (len(e.pending) == 0 || serLess(req, e.pending[0])) && e.grantable(req.t) {
		e.stats.GrantFastPath++
		fn()
		return
	}
	e.pending.pushReq(req)
	e.park(p, parkState{kind: parkReq, verb: "serialized", reqT: req.t})
	fn()
}

// pick returns the next process to resume: the pending Serialized head
// when it is grantable, else the runnable process with the lowest
// (clock, pid), else nil.
func (e *seqEngine) pick() *Process {
	if len(e.pending) > 0 && e.grantable(e.pending[0].t) {
		p := e.pending.popReq().p
		p.park.kind = parkNone
		return p
	}
	if len(e.runq) == 0 {
		return nil
	}
	return e.runq.pop()
}

// quiesce runs when nothing is runnable and no request is grantable: it
// solves the parked processes' next-action bounds, lifting their clocks,
// and wakes every Select those bounds decide. It reports whether any
// process can now run; false means deadlock.
func (e *seqEngine) quiesce() bool {
	e.stats.Kicks++
	if len(e.selParked) == 0 {
		return false
	}
	bounds := e.bounds.solve(e, e.sim.procs, e.selParked)
	for i := 0; i < len(e.selParked); {
		q := e.selParked[i]
		if _, lift, ok := selDecision(e, q.park.sels, bounds); ok {
			e.wake(q, lift) // drops q from selParked
			continue
		}
		i++
	}
	if len(e.pending) > 0 && e.grantable(e.pending[0].t) {
		return true
	}
	return len(e.runq) > 0
}

// runQueuePool recycles run-queue backing arrays across runs. Entries are
// zeroed before Put (they hold process pointers).
//
//lint:allow determinism a pooled array is reset before reuse, so no run observes what an earlier one left
var runQueuePool = sync.Pool{New: func() any { return new(runQueue) }}

func (e *seqEngine) run() (Time, error) {
	procs := e.sim.procs
	pooled := runQueuePool.Get().(*runQueue)
	if cap(*pooled) < len(procs) {
		*pooled = make(runQueue, 0, max(64, len(procs)))
	}
	// Every process starts runnable at time 0; in spawn order the
	// entries already form a heap.
	e.runq = (*pooled)[:0]
	for _, p := range procs {
		e.runq = append(e.runq, runEntry{0, p})
	}
	defer func() {
		clear(e.runq[:cap(e.runq)])
		*pooled = e.runq[:0]
		runQueuePool.Put(pooled)
		e.runq = nil
	}()
	e.live = len(procs)
	// A process that calls runtime.Goexit ends this goroutine too (see
	// iter.Pull); the deferred sweep still unwinds the parked rest.
	defer e.abortAll()
	for e.live > 0 && !e.failed {
		p := e.pick()
		if p == nil {
			if e.quiesce() {
				continue
			}
			e.deadlock = deadlockAt(e, procs)
			break
		}
		e.resume(p)
	}
	e.abortAll()
	return runResult(procs, e.deadlock)
}

// resume runs p's coroutine, starting it on first dispatch, until it
// yields or returns.
func (e *seqEngine) resume(p *Process) {
	sp := &p.seq
	if sp.next == nil {
		sp.next, sp.stop = pull(p.seqBody)
	}
	e.stats.Woken++
	if _, more := sp.next(); !more {
		e.finishProc(p)
	}
}

// seqBody is a process's coroutine body.
func (p *Process) seqBody(yield func(struct{}) bool) {
	p.seq.yield = yield
	defer func() { recoverAsError(p, recover()) }()
	p.err = p.fn(p)
}

// abortAll retires every process still alive (error or deadlock path):
// a parked coroutine is stopped, which makes its pending yield panic with
// errAborted so the body's deferred code runs; one never dispatched has
// no coroutine to stop. It leaves no coroutine goroutine behind.
func (e *seqEngine) abortAll() {
	e.failed = true
	for _, p := range e.sim.procs {
		sp := &p.seq
		if sp.finished {
			continue
		}
		sp.aborted = true
		if sp.stop != nil {
			sp.stop()
		}
		e.finishProc(p)
	}
}

// finishProc retires a process whose body has returned or been unwound.
// A failure ends the run; otherwise the process's frontier is now
// infinite, which may decide Selects waiting on its channels.
func (e *seqEngine) finishProc(p *Process) {
	sp := &p.seq
	sp.finished = true
	sp.next, sp.stop, sp.yield = nil, nil, nil
	p.finishClock = sp.clock
	e.live--
	if p.err != nil {
		e.failed = true
	}
	if e.failed {
		return
	}
	for i := 0; i < len(e.selParked); {
		if q := e.selParked[i]; sendsTo(p, q.park.sels) && e.recheck(q) {
			continue // recheck dropped q from selParked
		}
		i++
	}
}

// sendsTo reports whether p is the bound sender of any of cores.
func sendsTo(p *Process, cores []*chanCore) bool {
	for _, c := range cores {
		if c.sender.Load() == p {
			return true
		}
	}
	return false
}

func (e *seqEngine) schedStats() SchedStats { return e.stats }

// --- channel protocol -------------------------------------------------

func (e *seqEngine) sendReserve(c *chanCore, p *Process) int {
	if s := c.sender.Load(); s != p {
		if s != nil {
			panic(fmt.Sprintf("des: channel %q has two senders", c.label()))
		}
		c.sender.Store(p)
	}
	for {
		if c.closed {
			panic(fmt.Sprintf("des: send on closed channel %q", c.label()))
		}
		if t, ok := c.sendDeadline(c.nSent + 1); ok {
			// Backpressure time bridging: the send completes no earlier
			// than the virtual time its ring slot was freed.
			e.lift(p, t)
			return c.tail()
		}
		c.sendParked, c.sendParkedNeed = p, c.nSent+1-int64(c.cap)
		e.park(p, parkState{kind: parkSend, verb: "send", ch: c, need: c.sendParkedNeed})
	}
}

func (e *seqEngine) sendPublish(c *chanCore, p *Process) {
	ready := p.seq.clock + c.latency
	c.push(ready)
	if w := c.recvParked; w != nil {
		// The receiver parked on an empty ring, so this element is its
		// head: it adopts ready.
		c.recvParked = nil
		e.wake(w, ready)
	}
	for _, q := range c.selParked {
		e.recheck(q)
	}
}

func (e *seqEngine) recvWait(c *chanCore, p *Process) (int, bool) {
	if r := c.recver.Load(); r != p {
		if r != nil {
			panic(fmt.Sprintf("des: channel %q has two receivers", c.label()))
		}
		c.recver.Store(p)
	}
	for {
		if c.count > 0 {
			// Time bridging: adopt the element's visibility time.
			e.lift(p, c.ready[c.head])
			return c.head, true
		}
		if c.closed {
			e.lift(p, c.closeTime)
			return 0, false
		}
		c.recvParked = p
		e.park(p, parkState{kind: parkRecv, verb: "recv", ch: c})
	}
}

func (e *seqEngine) recvRelease(c *chanCore, p *Process) {
	c.pop(p.seq.clock)
	if w := c.sendParked; w != nil && c.nRecv >= c.sendParkedNeed {
		// The sender resumes at this dequeue's time.
		c.sendParked = nil
		e.wake(w, p.seq.clock)
	}
}

// recvMore releases the previously returned slot and, when the next head
// element is already visible, hands it out in the same step — the bulk
// dequeue primitive behind Chan.RecvUntil. Timing is identical to a
// recvRelease followed by a recvWait that found the element visible.
func (e *seqEngine) recvMore(c *chanCore, p *Process) (int, bool) {
	e.recvRelease(c, p)
	if c.count > 0 && c.ready[c.head] <= p.seq.clock {
		return c.head, true
	}
	return 0, false
}

func (e *seqEngine) closeChan(c *chanCore, p *Process) {
	if c.closed {
		panic(fmt.Sprintf("des: double close of channel %q", c.label()))
	}
	c.closed, c.closeTime = true, p.seq.clock
	if w := c.recvParked; w != nil {
		c.recvParked = nil
		e.wake(w, c.closeTime)
	}
	// A sender parked on a full channel must also observe the close (it
	// panics with the canonical "send on closed channel" report instead
	// of surfacing as a deadlocked process).
	if w := c.sendParked; w != nil {
		c.sendParked = nil
		e.wake(w, 0)
	}
	for _, q := range c.selParked {
		e.recheck(q)
	}
}

func (e *seqEngine) sel(p *Process, cores []*chanCore) int {
	for {
		if idx, lift, ok := selDecision(e, cores, nil); ok {
			e.lift(p, lift)
			return idx
		}
		for _, c := range cores {
			c.selParked = append(c.selParked, p)
		}
		e.selParked = append(e.selParked, p)
		e.park(p, parkState{kind: parkSel, verb: "select", sels: cores})
		for _, c := range cores {
			for i, q := range c.selParked {
				if q == p {
					c.selParked = append(c.selParked[:i], c.selParked[i+1:]...)
					break
				}
			}
		}
	}
}
