//lint:hotpath per-event code: names stay lazy (func() string thunks), strings only materialize in panics and diagnostics

package des

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// parProc is the parallel-engine per-process state.
//
// clock is the process's local virtual clock. It is written by the owning
// goroutine (Advance, channel time bridging) and, while the process is
// parked, lifted upward by the evaluator to conservative lower bounds of
// its next action time — lifts are always <= the value the process would
// adopt on wake, so they never change semantics, only unblock
// conservative waiters (Select frontiers, Serialized grants) earlier.
type parProc struct {
	clock atomic.Uint64

	procMu  sync.Mutex
	cond    *sync.Cond
	wakeGen uint64
	// waiting/resumePending (procMu) are the exact wake-charge protocol:
	// a signal to a waiting process charges the engine's in-flight counter
	// once per park episode, and the process discharges it when it rejoins
	// the running set. The scheduler thereby knows precisely whether any
	// wake is still in flight, without scanning anyone.
	waiting       bool
	resumePending bool

	// selWatch is this process's sender-side Select trigger: the lowest
	// clock value beyond which some Select parked on one of its output
	// channels could become committable. Armed (lowered) by parking
	// selectors, consumed and re-armed by senderCrossed. timeInf = none.
	selWatch atomic.Uint64
	// watchTA is this process's receiver-side threshold while parked in
	// Select: the earliest visibility time among already-queued heads
	// (the time its commit is waiting to protect). Read lock-free by
	// senders walking a channel's parked-selector list. timeInf = none.
	watchTA atomic.Uint64

	// Guarded by parEngine.stateMu (as is Process.park).
	selDecided    bool   // cached Select decision for one evaluation pass
	selDecidedVer uint64 // evaluation version the cache belongs to
	finished      bool   // finishedA mirrors it lock-free
	finishedA     atomic.Bool
	runIdx        int // index in parEngine.runningList; -1 when parked

	serSeq uint64 // owned by the process goroutine

	// outChans are the channels this process sends on; written at bind
	// time (BindSender / first send) and read only by the owning
	// goroutine's trigger walks, so no lock is needed.
	outChans []*chanCore

	// Per-process scheduler counters, written only by the owning
	// goroutine and aggregated after the run.
	stLifts    uint64
	stLiftFast uint64
}

func (pp *parProc) snapshotGen() uint64 {
	pp.procMu.Lock()
	g := pp.wakeGen
	pp.procMu.Unlock()
	return g
}

// parEngine is the DAM-style conservative parallel engine: one goroutine
// per process, per-channel mutex/condvar synchronization, and wake-up
// machinery sharded by endpoint — a send/recv/close examines only that
// channel's waiters, a clock lift only the thresholds armed against it.
// The global stateMu guards only what is genuinely global: the explicit
// running set, the Serialized grant order, and deadlock detection.
type parEngine struct {
	sim *Simulation

	stateMu sync.Mutex
	// runningList is the explicit set of processes currently running or
	// granted (stateMu). Scheduler scans walk this list — O(#running) —
	// never the whole (mostly parked) process population. Empty list
	// plus a zero in-flight wake count means the simulation is quiescent.
	runningList    []*Process
	live           int // processes not finished
	pending        serHeap
	grantsInFlight int
	deadlock       error
	aborting       bool

	abortFlag atomic.Bool

	// The Serialized grant barrier: while the head request (time barT)
	// cannot be granted, barCount approximately counts the running
	// processes whose clocks still sit at or below barT. Crossings
	// decrement it lock-free; only the decrement that drains it to zero
	// takes stateMu to re-attempt the grant, so clock lifts stay cheap
	// while a request is pending. The count is clamped and maintained so
	// it never exceeds the true number of running blockers (stray
	// decrements from a stale epoch only lower it), which means a
	// positive count never stalls a due grant — at worst a spurious
	// re-attempt recounts it. timeInf in barT = disarmed.
	barT     atomic.Uint64
	barCount atomic.Int64
	// inflight is the exact number of parked processes with a wake
	// signal in flight (charged by signal, discharged at unpark). A
	// non-zero value refutes grants and quiescence without scanning.
	inflight atomic.Int64

	wg sync.WaitGroup

	// selParkedList tracks processes parked in Select (stateMu).
	selParkedList []*Process
	// kickVer versions the per-pass selector-decision cache (stateMu).
	kickVer uint64

	// Scheduler counters. The st* fields are guarded by stateMu; the
	// atomic ones are written from lock-free paths.
	stKicks     uint64
	stScanned   uint64
	stGrants    uint64
	stGrantFast uint64
	stWokenA    atomic.Uint64
	stScannedA  atomic.Uint64
	stats       SchedStats // aggregated once by run()

	bounds boundSolver
}

func newParEngine(s *Simulation) *parEngine {
	e := &parEngine{sim: s}
	e.barT.Store(uint64(timeInf))
	return e
}

func clockOf(p *Process) Time { return Time(p.par.clock.Load()) }

func (e *parEngine) now(p *Process) Time { return clockOf(p) }

// The view the shared rules read: every input is published atomically,
// so the rules need no channel locks.
func (e *parEngine) clock(p *Process) Time      { return clockOf(p) }
func (e *parEngine) done(p *Process) bool       { return p.par.finishedA.Load() }
func (e *parEngine) headReady(c *chanCore) Time { return Time(c.headReadyA.Load()) }
func (e *parEngine) received(c *chanCore) int64 { return c.nRecvA.Load() }
func (e *parEngine) lift(p *Process, t Time)    { liftClockRaw(p, t) }
func (e *parEngine) closedAt(c *chanCore) (Time, bool) {
	// closedA first: markClosed stores the time before the flag.
	closed := c.closedA.Load()
	return Time(c.closeTimeA.Load()), closed
}

func (e *parEngine) schedStats() SchedStats { return e.stats }

// casMin lowers a to at most v (no-op when already lower).
func casMin(a *atomic.Uint64, v uint64) {
	for {
		old := a.Load()
		if old <= v || a.CompareAndSwap(old, v) {
			return
		}
	}
}

// liftClock raises p's local clock to at least t. Notification is
// threshold-driven: the lift does work only when it crosses the
// Serialized grant barrier or this sender's armed Select trigger; every
// other lift — the overwhelming majority — is two atomic loads (the
// fast path). Must be called from p's own goroutine.
func (e *parEngine) liftClock(p *Process, t Time) {
	pp := &p.par
	for {
		old := pp.clock.Load()
		if uint64(t) <= old {
			return
		}
		if !pp.clock.CompareAndSwap(old, uint64(t)) {
			continue
		}
		pp.stLifts++
		notified := false
		if bar := e.barT.Load(); old <= bar && uint64(t) > bar {
			notified = true
			if e.noteBarrierCrossed() {
				e.stateMu.Lock()
				e.maybeGrant()
				e.stateMu.Unlock()
			}
		}
		if uint64(t) > pp.selWatch.Load() {
			notified = true
			e.senderCrossed(p)
		}
		if !notified {
			pp.stLiftFast++
		}
		return
	}
}

// liftClockRaw is liftClock without notifications, for use inside the
// evaluator (which re-arms thresholds itself after lifting).
func liftClockRaw(p *Process, t Time) {
	pp := &p.par
	for {
		old := pp.clock.Load()
		if uint64(t) <= old {
			return
		}
		if pp.clock.CompareAndSwap(old, uint64(t)) {
			return
		}
	}
}

func (e *parEngine) checkAbort() {
	if e.abortFlag.Load() {
		panic(errAborted)
	}
}

func (e *parEngine) advance(p *Process, d Time) {
	e.checkAbort()
	e.liftClock(p, clockOf(p)+d)
}

func (e *parEngine) advanceTo(p *Process, t Time) {
	e.checkAbort()
	e.liftClock(p, t)
}

// signal wakes a process parked on its personal condition, charging the
// in-flight wake counter exactly once per park episode.
func (e *parEngine) signal(p *Process) {
	e.stWokenA.Add(1)
	pp := &p.par
	pp.procMu.Lock()
	pp.wakeGen++
	if pp.waiting && !pp.resumePending {
		pp.resumePending = true
		e.inflight.Add(1)
	}
	pp.cond.Broadcast()
	pp.procMu.Unlock()
}

// waitGen blocks until the wake generation moves past g0 or the
// simulation aborts.
func (e *parEngine) waitGen(p *Process, g0 uint64) {
	pp := &p.par
	pp.procMu.Lock()
	for pp.wakeGen == g0 && !e.abortFlag.Load() {
		pp.cond.Wait()
	}
	pp.procMu.Unlock()
}

// runListAdd/runListDel maintain the explicit running set (stateMu held).
func (e *parEngine) runListAdd(p *Process) {
	p.par.runIdx = len(e.runningList)
	e.runningList = append(e.runningList, p)
}

func (e *parEngine) runListDel(p *Process) {
	i := p.par.runIdx
	last := len(e.runningList) - 1
	q := e.runningList[last]
	e.runningList[i] = q
	q.par.runIdx = i
	e.runningList[last] = nil
	e.runningList = e.runningList[:last]
	p.par.runIdx = -1
}

// noteBarrierCrossed decrements the barrier count, clamped at zero, and
// reports whether this drained it (the caller should re-attempt the
// grant).
func (e *parEngine) noteBarrierCrossed() bool {
	for {
		v := e.barCount.Load()
		if v <= 0 {
			return false
		}
		if e.barCount.CompareAndSwap(v, v-1) {
			return v == 1
		}
	}
}

// parkCommit transitions p out of the running set (stateMu held). g0 is
// the wake-generation snapshot taken at (or before) waiter registration:
// a signal that landed in between is converted into an immediate resume
// charge, so no wake is ever lost or double-counted.
func (e *parEngine) parkCommit(p *Process, g0 uint64) {
	pp := &p.par
	e.runListDel(p)
	if bar := e.barT.Load(); uint64(clockOf(p)) <= bar {
		e.noteBarrierCrossed()
	}
	pp.procMu.Lock()
	pp.waiting = true
	if pp.wakeGen != g0 && !pp.resumePending {
		pp.resumePending = true
		e.inflight.Add(1)
	}
	pp.procMu.Unlock()
	if len(e.runningList) == 0 && e.inflight.Load() == 0 {
		e.quiesce()
	} else {
		e.maybeGrantIfDrained()
	}
}

// unparkCommit transitions p back into the running set (stateMu held),
// discharging its in-flight wake and re-counting it as a barrier blocker.
func (e *parEngine) unparkCommit(p *Process) {
	pp := &p.par
	pp.procMu.Lock()
	pp.waiting = false
	if pp.resumePending {
		pp.resumePending = false
		e.inflight.Add(-1)
	}
	pp.procMu.Unlock()
	e.runListAdd(p)
	if bar := e.barT.Load(); uint64(clockOf(p)) <= bar {
		e.barCount.Add(1)
	}
	e.maybeGrantIfDrained()
}

// parkProc registers p as blocked on a channel endpoint.
func (e *parEngine) parkProc(p *Process, kind parkKind, verb string, ch *chanCore, need int64, g0 uint64) {
	e.stateMu.Lock()
	p.park = parkState{kind: kind, verb: verb, ch: ch, need: need}
	e.parkCommit(p, g0)
	e.stateMu.Unlock()
}

func (e *parEngine) unparkProc(p *Process) {
	e.stateMu.Lock()
	p.park = parkState{}
	e.unparkCommit(p)
	e.stateMu.Unlock()
}

func (e *parEngine) run() (Time, error) {
	procs := e.sim.procs
	e.live = len(procs)
	e.runningList = make([]*Process, 0, len(procs))
	for _, p := range procs {
		p.par.cond = sync.NewCond(&p.par.procMu)
		p.par.selWatch.Store(uint64(timeInf))
		p.par.watchTA.Store(uint64(timeInf))
		e.runListAdd(p)
	}
	e.wg.Add(len(procs))
	for _, p := range procs {
		p := p
		go func() {
			defer e.wg.Done()
			defer func() {
				recoverAsError(p, recover())
				e.finishProc(p)
			}()
			e.checkAbort()
			p.err = p.fn(p)
		}()
	}
	e.wg.Wait()

	var st SchedStats
	for _, p := range procs {
		st.Lifts += p.par.stLifts
		st.LiftFastPath += p.par.stLiftFast
	}
	st.Kicks = e.stKicks
	st.Scanned = e.stScanned + e.stScannedA.Load()
	st.Woken = e.stWokenA.Load()
	st.Grants = e.stGrants
	st.GrantFastPath = e.stGrantFast
	e.stats = st

	return runResult(procs, e.deadlock)
}

func (e *parEngine) finishProc(p *Process) {
	e.stateMu.Lock()
	pp := &p.par
	if p.park.kind == parkNone || p.park.kind == parkGranted {
		e.runListDel(p)
		if bar := e.barT.Load(); uint64(clockOf(p)) <= bar {
			e.noteBarrierCrossed()
		}
	}
	p.park.kind = parkNone
	pp.finished = true
	p.finishClock = clockOf(p)
	pp.finishedA.Store(true)
	if p.err != nil && !e.aborting {
		e.live--
		e.aborting = true
		e.abortFlag.Store(true)
		e.signalAllLocked()
		e.stateMu.Unlock()
		return
	}
	e.live--
	e.stateMu.Unlock()
	// A finished sender's frontier is infinite: Selects parked on its
	// output channels may now be decidable, so sweep exactly those
	// waiter lists (outside stateMu — lock order is c.mu -> procMu).
	e.senderFinished(p)
	e.stateMu.Lock()
	if e.live > 0 && !e.aborting {
		if len(e.runningList) == 0 && e.inflight.Load() == 0 {
			e.quiesce()
		} else {
			e.maybeGrantIfDrained()
		}
	}
	e.stateMu.Unlock()
}

// signalAllLocked wakes every process so parked ones observe the abort.
// Every park kind (recv, send, select, serialized) waits on the process's
// personal condition, so one signal per process suffices.
func (e *parEngine) signalAllLocked() {
	for _, q := range e.sim.procs {
		if !q.par.finished {
			e.signal(q)
		}
	}
}

func (e *parEngine) triggerDeadlock() {
	e.deadlock = deadlockAt(e, e.sim.procs)
	e.aborting = true
	e.abortFlag.Store(true)
	e.signalAllLocked()
}

// --- Serialized --------------------------------------------------------

func (e *parEngine) serialized(p *Process, fn func()) {
	e.checkAbort()
	pp := &p.par
	t := clockOf(p)
	req := serReq{t: t, pid: p.id, seq: pp.serSeq, p: p}
	pp.serSeq++
	g0, fast := e.serEnqueueOrRunFast(req, fn)
	if fast {
		return
	}
	e.waitGen(p, g0)
	if e.abortFlag.Load() {
		panic(errAborted)
	}
	e.serRunGranted(p, fn)
}

// serEnqueueOrRunFast runs fn inline when the request is first in
// (time, pid, seq) order beyond doubt — stateMu is held across fn, so
// critical sections are totally ordered even against concurrently granted
// requests — or enqueues it and registers the caller as parked. stateMu
// is released via defer so a panicking critical section unwinds into the
// normal process-error path instead of wedging the engine.
func (e *parEngine) serEnqueueOrRunFast(req serReq, fn func()) (g0 uint64, fast bool) {
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	if len(e.pending) == 0 && e.grantsInFlight == 0 && !e.aborting && e.grantableHead(req) {
		e.stGrants++
		e.stGrantFast++
		//lint:allow lockdiscipline Serialized critical sections run under stateMu by design: holding the lock across fn is what totally orders them against concurrently granted requests
		fn()
		return 0, true
	}
	e.pending.pushReq(req)
	req.p.park = parkState{kind: parkReq, verb: "serialized", reqT: req.t}
	g0 = req.p.par.snapshotGen()
	e.parkCommit(req.p, g0)
	if len(e.pending) > 0 && e.pending[0].p == req.p && e.grantsInFlight == 0 && !e.aborting {
		// New head: the barrier armed for the previous head (a later
		// request time) over-counts blockers of this one — re-arm.
		e.maybeGrant()
	}
	return g0, false
}

// serRunGranted runs the granted critical section (kind is parkGranted).
// The deferred cleanup keeps the engine consistent even when fn panics:
// the process then finishes as a normal error, not a wedged lock holder.
func (e *parEngine) serRunGranted(p *Process, fn func()) {
	e.stateMu.Lock()
	defer func() {
		p.park = parkState{}
		e.grantsInFlight--
		e.maybeGrant()
		e.stateMu.Unlock()
	}()
	//lint:allow lockdiscipline Serialized critical sections run under stateMu by design: holding the lock across fn is what totally orders them against concurrently granted requests
	fn()
}

// --- the Serialized grant scheduler ------------------------------------

// maybeGrant grants pending requests while the head is provably first,
// then (re-)arms the barrier for the head it cannot grant, or disarms it
// when nothing is waiting. Callers hold stateMu.
func (e *parEngine) maybeGrant() {
	e.stKicks++
	retried := false
	for {
		if e.aborting || len(e.pending) == 0 || e.grantsInFlight > 0 {
			e.barT.Store(uint64(timeInf))
			return
		}
		req := e.pending[0]
		if e.grantableHead(req) {
			e.grantHead(req)
			retried = false
			continue
		}
		e.rearmBarrier(req)
		if e.barCount.Load() <= 0 && !retried {
			// Every running blocker crossed between the check and the
			// recount; one bounded retry avoids waiting for the next
			// state transition. (A second failure means the refutation
			// is a parked selector or an in-flight wake, whose own
			// unpark re-triggers this.)
			retried = true
			continue
		}
		return
	}
}

// maybeGrantIfDrained re-attempts the head grant when the barrier count
// is drained (O(1) otherwise). Called on every state transition so a
// drained barrier is never left without a pending re-attempt.
func (e *parEngine) maybeGrantIfDrained() {
	if len(e.pending) > 0 && e.grantsInFlight == 0 && !e.aborting && e.barCount.Load() <= 0 {
		e.maybeGrant()
	}
}

// grantableHead is the authoritative, cheap grant check for the head
// request: no wake in flight, no running process at or below the request
// time, and no parked selector that could still commit at or below it.
// Parked (uncharged) processes need no check: any resume adopts a
// virtual time caused by a process this scan already requires to be past
// req.t, and other queued requests are ordered by the pending heap.
// Callers hold stateMu.
func (e *parEngine) grantableHead(req serReq) bool {
	if e.inflight.Load() != 0 {
		return false
	}
	for _, q := range e.runningList {
		e.stScanned++
		if q != req.p && clockOf(q) <= req.t {
			return false
		}
	}
	for _, q := range e.selParkedList {
		e.stScanned++
		// A parked selector can commit at the ready time of an element
		// it ALREADY holds — possibly at or before req.t — once a
		// frontier catches up. Old elements at or before req.t block
		// the grant outright; new elements can only arrive from senders
		// this scan already requires to be past req.t.
		if clockOf(q) <= req.t && selMinHead(e, q.park.sels) <= req.t {
			return false
		}
	}
	return true
}

// grantHead pops and grants the head request (stateMu held).
func (e *parEngine) grantHead(req serReq) {
	e.pending.popReq()
	req.p.park = parkState{kind: parkGranted}
	e.grantsInFlight++
	e.stGrants++
	e.unparkCommit(req.p)
	e.signal(req.p)
}

// rearmBarrier publishes the head request's time as the barrier and
// counts the running blockers against it. The sentinel keeps racing
// lock-free decrements (crossings observed mid-scan) from being lost:
// they land on the sentinel and survive the final adjustment, so the
// count can only undercount — which at worst costs a spurious re-attempt,
// never a missed grant. Callers hold stateMu.
func (e *parEngine) rearmBarrier(req serReq) {
	const sentinel = int64(1) << 60
	e.barT.Store(uint64(req.t))
	e.barCount.Store(sentinel)
	var n int64
	for _, q := range e.runningList {
		e.stScanned++
		if q != req.p && clockOf(q) <= req.t {
			n++
		}
	}
	e.barCount.Add(n - sentinel)
}

// quiesce is the evaluator, run only at global quiescence (no running
// process, no wake in flight): it computes conservative next-action
// bounds, lifts parked clocks, commits decidable Selects, grants the
// head request if possible, and otherwise declares deadlock. Callers
// hold stateMu.
func (e *parEngine) quiesce() {
	if e.aborting || e.live == 0 {
		return
	}
	e.stKicks++
	e.kickVer++
	progress := e.evalSelectors(e.bounds.solve(e, e.sim.procs, e.selParkedList))
	granted := false
	if len(e.pending) > 0 && e.grantsInFlight == 0 {
		if req := e.pending[0]; e.grantableHead(req) {
			e.grantHead(req)
			granted = true
		}
	}
	if !progress && !granted && e.inflight.Load() == 0 && !e.anyParkedEligible() {
		e.triggerDeadlock()
		return
	}
	// Re-arm the barrier against the evaluator's raw lifts (liftClockRaw
	// bypasses barrier accounting, so the old count may overcount).
	e.maybeGrant()
}

// evalSelectors re-runs the decision rule for every parked Select with
// evaluator bounds, signaling the decidable ones. The decisions are
// cached for this pass's eligibility checks.
func (e *parEngine) evalSelectors(bounds []Time) bool {
	progress := false
	for _, p := range e.selParkedList {
		_, _, decided := selDecision(e, p.park.sels, bounds)
		p.par.selDecided = decided
		p.par.selDecidedVer = e.kickVer
		if decided {
			e.signal(p)
			progress = true
		}
	}
	return progress
}

// parkedEligible reports whether a parked process's wake condition is
// already satisfied (a wake signal is in flight or imminent).
func (e *parEngine) parkedEligible(q *Process) bool {
	pp := &q.par
	switch q.park.kind {
	case parkRecv:
		c := q.park.ch
		return Time(c.headReadyA.Load()) != timeInf || c.closedA.Load()
	case parkSend:
		c := q.park.ch
		return c.nRecvA.Load() >= q.park.need || c.closedA.Load()
	case parkSel:
		if pp.selDecidedVer == e.kickVer {
			return pp.selDecided
		}
		_, _, decided := selDecision(e, q.park.sels, nil)
		pp.selDecided = decided
		pp.selDecidedVer = e.kickVer
		return decided
	default:
		return false
	}
}

func (e *parEngine) anyParkedEligible() bool {
	for _, q := range e.sim.procs {
		if q.par.finished {
			continue
		}
		switch q.park.kind {
		case parkRecv, parkSend, parkSel:
			if e.parkedEligible(q) {
				return true
			}
		case parkGranted, parkNone:
			// Signaled or running; progress is in flight.
			return true
		}
	}
	return false
}

// --- channel protocol --------------------------------------------------

// registerOut records c as one of p's output channels (idempotent).
// Called at bind time only, from p's own goroutine or during pre-Run
// setup, so the slice needs no lock (see parProc.outChans).
func (e *parEngine) registerOut(c *chanCore, p *Process) {
	for _, o := range p.par.outChans {
		if o == c {
			return
		}
	}
	p.par.outChans = append(p.par.outChans, c)
}

func (e *parEngine) bindOnSend(c *chanCore, p *Process) {
	if got := c.sender.Load(); got == nil {
		if c.sender.CompareAndSwap(nil, p) {
			e.registerOut(c, p)
		} else if c.sender.Load() != p {
			panic(fmt.Sprintf("des: channel %q has two senders", c.label()))
		}
	} else if got != p {
		panic(fmt.Sprintf("des: channel %q has two senders", c.label()))
	}
}

func (e *parEngine) bindOnRecv(c *chanCore, p *Process) {
	if got := c.recver.Load(); got == nil {
		c.recver.CompareAndSwap(nil, p)
	} else if got != p {
		panic(fmt.Sprintf("des: channel %q has two receivers", c.label()))
	}
}

func (e *parEngine) sendReserve(c *chanCore, p *Process) int {
	e.checkAbort()
	for {
		c.mu.Lock()
		e.bindOnSend(c, p)
		if c.closed {
			c.mu.Unlock()
			panic(fmt.Sprintf("des: send on closed channel %q", c.label()))
		}
		n := c.nSent + 1
		if t, ok := c.sendDeadline(n); ok {
			slot := c.tail()
			c.mu.Unlock()
			// Backpressure time bridging: the send completes no earlier
			// than the virtual time its ring slot was freed.
			e.liftClock(p, t)
			return slot
		}
		c.sendParked = p
		c.sendParkedNeed = n - int64(c.cap)
		need := c.sendParkedNeed
		g0 := p.par.snapshotGen()
		c.mu.Unlock()
		e.parkProc(p, parkSend, "send", c, need, g0)
		e.waitGen(p, g0)
		e.unparkProc(p)
		c.mu.Lock()
		if c.sendParked == p {
			c.sendParked = nil
		}
		c.mu.Unlock()
		e.checkAbort()
	}
}

func (e *parEngine) sendPublish(c *chanCore, p *Process) {
	c.mu.Lock()
	c.push(clockOf(p) + c.latency)
	c.publish()
	if w := c.recvParked; w != nil {
		e.signal(w)
	}
	for _, sp := range c.selParked {
		e.signal(sp)
	}
	c.mu.Unlock()
}

func (e *parEngine) recvWait(c *chanCore, p *Process) (int, bool) {
	e.checkAbort()
	for {
		c.mu.Lock()
		e.bindOnRecv(c, p)
		if c.count > 0 {
			slot := c.head
			ready := c.ready[slot]
			c.mu.Unlock()
			// Time bridging: adopt the element's visibility time.
			e.liftClock(p, ready)
			return slot, true
		}
		if c.closed {
			ct := c.closeTime
			c.mu.Unlock()
			e.liftClock(p, ct)
			return 0, false
		}
		c.recvParked = p
		g0 := p.par.snapshotGen()
		c.mu.Unlock()
		e.parkProc(p, parkRecv, "recv", c, 0, g0)
		e.waitGen(p, g0)
		e.unparkProc(p)
		c.mu.Lock()
		if c.recvParked == p {
			c.recvParked = nil
		}
		c.mu.Unlock()
		e.checkAbort()
	}
}

func (e *parEngine) recvRelease(c *chanCore, p *Process) {
	c.mu.Lock()
	c.pop(clockOf(p))
	c.publish()
	if w := c.sendParked; w != nil && (c.nRecv >= c.sendParkedNeed || c.closed) {
		e.signal(w)
	}
	c.mu.Unlock()
}

// recvMore is recvRelease plus an opportunistic peek at the next head,
// in one lock acquisition: when the next element is already visible at
// the receiver's clock it is handed out without a park round-trip (no
// clock lift needed — visible means ready <= clock). Timing-identical to
// recvRelease followed by a recvWait that found the element visible.
// This is also what batches a RecvUntil drain's frontier publications:
// the drain's clock moves only on the elements that actually lift it,
// not once per element.
func (e *parEngine) recvMore(c *chanCore, p *Process) (int, bool) {
	now := clockOf(p)
	c.mu.Lock()
	c.pop(now)
	c.publish()
	if w := c.sendParked; w != nil && (c.nRecv >= c.sendParkedNeed || c.closed) {
		e.signal(w)
	}
	if c.count > 0 && c.ready[c.head] <= now {
		slot := c.head
		c.mu.Unlock()
		return slot, true
	}
	c.mu.Unlock()
	return 0, false
}

func (e *parEngine) closeChan(c *chanCore, p *Process) {
	e.checkAbort()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		panic(fmt.Sprintf("des: double close of channel %q", c.label()))
	}
	c.markClosed(clockOf(p))
	if w := c.recvParked; w != nil {
		e.signal(w)
	}
	if w := c.sendParked; w != nil {
		e.signal(w)
	}
	for _, sp := range c.selParked {
		e.signal(sp)
	}
	c.mu.Unlock()
}

func (e *parEngine) sel(p *Process, cores []*chanCore) int {
	e.checkAbort()
	pp := &p.par
	for {
		if idx, lift, decided := selDecision(e, cores, nil); decided {
			e.liftClock(p, lift)
			return idx
		}
		g0 := pp.snapshotGen()
		wt := selMinHead(e, cores)
		// Publish this selector's commit threshold BEFORE registering on
		// the channels: a sender walking a waiter list always sees the
		// current episode's threshold, never a stale lower one that
		// could suppress its trigger.
		pp.watchTA.Store(uint64(wt))
		for _, c := range cores {
			c.mu.Lock()
			c.selParked = append(c.selParked, p)
			c.mu.Unlock()
		}
		e.stateMu.Lock()
		p.park = parkState{kind: parkSel, verb: "select", sels: cores}
		e.selParkedList = append(e.selParkedList, p)
		e.stateMu.Unlock()
		// Arm per-sender triggers, then re-check: any frontier crossing
		// after the trigger store signals us through the channel's
		// waiter list; any crossing before it is visible to this
		// re-check (sequentially consistent atomics). Either way no
		// wake is missed.
		e.armSelTriggers(cores, wt)
		if idx, lift, decided := selDecision(e, cores, nil); decided {
			e.stateMu.Lock()
			p.park = parkState{}
			pp.watchTA.Store(uint64(timeInf))
			e.dropSelParked(p)
			e.stateMu.Unlock()
			e.deregisterSel(p, cores)
			e.liftClock(p, lift)
			return idx
		}
		e.stateMu.Lock()
		e.parkCommit(p, g0)
		e.stateMu.Unlock()
		e.waitGen(p, g0)
		e.unparkSel(p)
		e.deregisterSel(p, cores)
		e.checkAbort()
	}
}

// armSelTriggers lowers each blocking sender's trigger to the clock value
// whose crossing could commit this select (threshold minus the channel
// latency). Channels whose frontier already passed are skipped — the
// caller's re-check observes them. A threshold of timeInf means the
// select holds no element yet; it can then only be decided by a new
// element or a close, both of which signal the waiter list directly.
func (e *parEngine) armSelTriggers(cores []*chanCore, wt Time) {
	if wt == timeInf {
		return
	}
	for _, c := range cores {
		if Time(c.headReadyA.Load()) != timeInf || c.closedA.Load() {
			continue
		}
		s := c.sender.Load()
		if s == nil || s.par.finishedA.Load() {
			continue
		}
		trig := Time(0)
		if wt > c.latency {
			trig = wt - c.latency
		}
		if clockOf(s) > trig {
			continue
		}
		casMin(&s.par.selWatch, uint64(trig))
	}
}

// senderCrossed walks the parked selectors on p's output channels after
// p's clock crossed its armed trigger: selectors whose threshold is now
// proven get a wake signal; the rest re-arm the trigger to the next
// lowest threshold. Must be called from p's own goroutine. Work is
// proportional to the selectors parked on p's own channels — the sharded
// replacement for the old global O(parked) kick scan.
func (e *parEngine) senderCrossed(p *Process) {
	pp := &p.par
	for {
		sw := pp.selWatch.Load()
		clk := pp.clock.Load()
		if clk <= sw {
			return
		}
		next := uint64(timeInf)
		for _, c := range pp.outChans {
			c.mu.Lock()
			for _, q := range c.selParked {
				e.stScannedA.Add(1)
				wt := q.par.watchTA.Load()
				if wt == uint64(timeInf) {
					continue
				}
				trig := uint64(0)
				if wt > uint64(c.latency) {
					trig = wt - uint64(c.latency)
				}
				if clk > trig {
					e.signal(q)
				} else if trig < next {
					next = trig
				}
			}
			c.mu.Unlock()
		}
		if pp.selWatch.CompareAndSwap(sw, next) {
			return
		}
		// A selector lowered the trigger mid-walk; re-walk so its
		// threshold is either proven or re-armed.
	}
}

// senderFinished wakes every selector parked on p's output channels: a
// finished sender's frontier is infinite, which may decide their commits.
// Must be called after finishedA is published and outside stateMu.
func (e *parEngine) senderFinished(p *Process) {
	p.par.selWatch.Store(uint64(timeInf))
	for _, c := range p.par.outChans {
		c.mu.Lock()
		for _, q := range c.selParked {
			e.signal(q)
		}
		c.mu.Unlock()
	}
}

// dropSelParked removes p from the parked-selector list (stateMu held).
func (e *parEngine) dropSelParked(p *Process) {
	for i, q := range e.selParkedList {
		if q == p {
			e.selParkedList = append(e.selParkedList[:i], e.selParkedList[i+1:]...)
			break
		}
	}
}

// unparkSel is unparkProc plus parked-selector list maintenance.
func (e *parEngine) unparkSel(p *Process) {
	e.stateMu.Lock()
	p.park = parkState{}
	p.par.watchTA.Store(uint64(timeInf))
	e.dropSelParked(p)
	e.unparkCommit(p)
	e.stateMu.Unlock()
}

func (e *parEngine) deregisterSel(p *Process, cores []*chanCore) {
	for _, c := range cores {
		c.mu.Lock()
		for i, q := range c.selParked {
			if q == p {
				c.selParked = append(c.selParked[:i], c.selParked[i+1:]...)
				break
			}
		}
		c.mu.Unlock()
	}
}
