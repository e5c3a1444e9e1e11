//lint:hotpath per-event code: names stay lazy (func() string thunks), strings only materialize in panics and diagnostics

package des

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// parkKind classifies why a parallel-engine process is blocked.
type parkKind uint8

const (
	parkNone    parkKind = iota
	parkRecv             // waiting for an element or close
	parkSend             // waiting for a freed slot (backpressure) or close
	parkSel              // waiting for a committable Select decision
	parkReq              // waiting for a Serialized grant
	parkGranted          // granted, running (or about to run) its critical section
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

	// Guarded by parEngine.stateMu.
	kind          parkKind
	parkCh        *chanCore   // parkRecv / parkSend
	parkSels      []*chanCore // parkSel
	parkNeed      int64       // parkSend: the nRecv count being waited for
	reqT          Time        // parkReq: request time
	reqSeq        uint64      // parkReq: per-process request index
	selDecided    bool        // cached Select decision for one evaluation pass
	selDecidedVer uint64      // evaluation version the cache belongs to
	finished      bool        // guarded by stateMu; finishedA mirrors it lock-free
	finishedA     atomic.Bool
	finishClock   Time
	runIdx        int // index in parEngine.runningList; -1 when parked
	// blockedVerb/blockedCh describe the block for deadlock reports;
	// the string is materialized lazily via the report formatter.
	blockedVerb string
	blockedCh   *chanCore

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

	// Scratch buffers for the evaluator, reused across passes.
	bndVal   []Time
	bndSet   []uint64 // settled-version stamps
	bndVis   []uint64 // visited-version stamps
	bndVer   uint64
	bndRev   [][]int
	bndStack []int
	bndPQ    boundPQ
}

func newParEngine(s *Simulation) *parEngine {
	e := &parEngine{sim: s}
	e.barT.Store(uint64(timeInf))
	return e
}

func clockOf(p *Process) Time { return Time(p.par.clock.Load()) }

func (e *parEngine) now(p *Process) Time { return clockOf(p) }

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
	pp := &p.par
	pp.kind = kind
	pp.blockedVerb, pp.blockedCh = verb, ch
	pp.parkCh = ch
	pp.parkNeed = need
	e.parkCommit(p, g0)
	e.stateMu.Unlock()
}

func (e *parEngine) unparkProc(p *Process) {
	e.stateMu.Lock()
	pp := &p.par
	pp.kind = parkNone
	pp.blockedVerb, pp.blockedCh = "", nil
	pp.parkCh = nil
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
	if c := schedSink.Load(); c != nil {
		c.add(st)
	}

	// Deterministic error selection: the erroring process with the lowest
	// (finish clock, spawn id) wins, mirroring the sequential engine's
	// earliest-failure-first report.
	var failed *Process
	for _, p := range procs {
		if p.err == nil {
			continue
		}
		if failed == nil || p.par.finishClock < failed.par.finishClock ||
			(p.par.finishClock == failed.par.finishClock && p.id < failed.id) {
			failed = p
		}
	}
	var finish Time
	for _, p := range procs {
		if p.par.finishClock > finish {
			finish = p.par.finishClock
		}
	}
	switch {
	case failed != nil:
		return failed.par.finishClock, procError(failed)
	case e.deadlock != nil:
		return finish, e.deadlock
	default:
		return finish, nil
	}
}

func (e *parEngine) finishProc(p *Process) {
	e.stateMu.Lock()
	pp := &p.par
	if pp.kind == parkNone || pp.kind == parkGranted {
		e.runListDel(p)
		if bar := e.barT.Load(); uint64(clockOf(p)) <= bar {
			e.noteBarrierCrossed()
		}
	}
	pp.kind = parkNone
	pp.finished = true
	pp.finishClock = clockOf(p)
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
	var refs []blockedRef
	var at Time
	for _, p := range e.sim.procs {
		if p.par.finished {
			continue
		}
		if c := clockOf(p); c > at {
			at = c
		}
		refs = append(refs, blockedRef{
			name: p.Name(),
			verb: p.par.blockedVerb,
			on:   parBlockedOn(&p.par),
		})
	}
	e.deadlock = deadlockError(at, refs)
	e.aborting = true
	e.abortFlag.Store(true)
	e.signalAllLocked()
}

// parBlockedOn names the resource a blocked process waits on, for
// grouping deadlock reports. Materialized only once deadlock is certain.
func parBlockedOn(pp *parProc) string {
	if pp.blockedCh != nil {
		//lint:allow hotpath deadlock-report formatting; runs once after the engine has already stopped
		return "chan " + pp.blockedCh.label()
	}
	if pp.kind == parkSel && len(pp.parkSels) > 0 {
		return selectLabel(pp.parkSels)
	}
	return ""
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
	e.serRunGranted(pp, fn)
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
	pp := &req.p.par
	e.pending.pushReq(req)
	pp.kind = parkReq
	pp.reqT = req.t
	pp.reqSeq = req.seq
	pp.blockedVerb = "serialized"
	g0 = pp.snapshotGen()
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
func (e *parEngine) serRunGranted(pp *parProc, fn func()) {
	e.stateMu.Lock()
	defer func() {
		pp.kind = parkNone
		pp.blockedVerb = ""
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
		if clockOf(q) <= req.t && e.selMinHead(q.par.parkSels) <= req.t {
			return false
		}
	}
	return true
}

// grantHead pops and grants the head request (stateMu held).
func (e *parEngine) grantHead(req serReq) {
	e.pending.popReq()
	pp := &req.p.par
	pp.kind = parkGranted
	pp.blockedVerb = ""
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
	progress := e.evalSelectors(e.computeBounds())
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
		_, _, decided := e.selDecision(p.par.parkSels, bounds)
		p.par.selDecided = decided
		p.par.selDecidedVer = e.kickVer
		if decided {
			e.signal(p)
			progress = true
		}
	}
	return progress
}

// selMinHead returns the earliest visibility time among elements already
// queued on the select's channels (timeInf when none).
func (e *parEngine) selMinHead(cores []*chanCore) Time {
	best := timeInf
	for _, c := range cores {
		if hr := Time(c.headReadyA.Load()); hr < best {
			best = hr
		}
	}
	return best
}

// parkedEligible reports whether a parked process's wake condition is
// already satisfied (a wake signal is in flight or imminent).
func (e *parEngine) parkedEligible(q *Process) bool {
	pp := &q.par
	switch pp.kind {
	case parkRecv:
		c := pp.parkCh
		return Time(c.headReadyA.Load()) != timeInf || c.closedA.Load()
	case parkSend:
		c := pp.parkCh
		return c.nRecvA.Load() >= pp.parkNeed || c.closedA.Load()
	case parkSel:
		if pp.selDecidedVer == e.kickVer {
			return pp.selDecided
		}
		_, _, decided := e.selDecision(pp.parkSels, nil)
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
		switch q.par.kind {
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

// boundPQ is the evaluator's lazy priority queue (manual heap: the
// container/heap interface would box every item).
type boundItem struct {
	val Time
	pid int
}
type boundPQ []boundItem

func (h *boundPQ) push(it boundItem) {
	*h = append(*h, it)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if (*h)[parent].val <= (*h)[i].val {
			break
		}
		(*h)[parent], (*h)[i] = (*h)[i], (*h)[parent]
		i = parent
	}
}

func (h *boundPQ) pop() boundItem {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && old[l].val < old[small].val {
			small = l
		}
		if r < n && old[r].val < old[small].val {
			small = r
		}
		if small == i {
			break
		}
		old[i], old[small] = old[small], old[i]
		i = small
	}
	return top
}

// computeBounds solves, as a least fixpoint, the per-process next-action
// lower bounds
//
//	B(q) = max(clock_q, wake-bound from what q is parked on)
//
// where a channel's forward bound is min(head ready, close time,
// sender bound + latency). Dijkstra with per-node floors: processes settle
// in increasing bound order, so latency-0 cycles terminate and genuinely
// stuck subgraphs settle at infinity. Parked processes' clocks are lifted
// to their bounds (safe: a bound never exceeds the clock value the
// process adopts when it actually wakes).
func (e *parEngine) computeBounds() []Time {
	procs := e.sim.procs
	n := len(procs)
	if cap(e.bndVal) < n {
		e.bndVal = make([]Time, n)
		e.bndSet = make([]uint64, n)
		e.bndVis = make([]uint64, n)
		e.bndRev = make([][]int, n)
	}
	val := e.bndVal[:n]
	set := e.bndSet[:n]
	vis := e.bndVis[:n]
	rev := e.bndRev[:n]
	e.bndVer++
	ver := e.bndVer
	stack := e.bndStack[:0]

	// Collect only the sub-graph that can influence a parked Select: the
	// empty-open channels' senders, transitively through parked processes.
	push := func(q *Process) {
		if q != nil && vis[q.id] != ver {
			vis[q.id] = ver
			rev[q.id] = rev[q.id][:0]
			stack = append(stack, q.id)
		}
	}
	for _, p := range e.selParkedList {
		for _, c := range p.par.parkSels {
			if Time(c.headReadyA.Load()) == timeInf && !c.closedA.Load() {
				push(c.sender.Load())
			}
		}
	}
	dep := func(on *Process, dependent int) {
		push(on)
		if on != nil {
			rev[on.id] = append(rev[on.id], dependent)
		}
	}
	for i := 0; i < len(stack); i++ {
		q := procs[stack[i]]
		switch q.par.kind {
		case parkRecv:
			dep(q.par.parkCh.sender.Load(), q.id)
		case parkSend:
			dep(q.par.parkCh.recver.Load(), q.id)
		case parkSel:
			for _, c := range q.par.parkSels {
				dep(c.sender.Load(), q.id)
			}
		}
	}
	e.bndStack = stack

	// Settle base nodes, then seed parked tentatives from them.
	for _, id := range stack {
		q := procs[id]
		pp := &q.par
		switch {
		case pp.finished:
			val[id] = timeInf
			set[id] = ver
		case pp.kind == parkReq:
			val[id] = pp.reqT
			set[id] = ver
		case pp.kind == parkNone || pp.kind == parkGranted:
			val[id] = clockOf(q)
			set[id] = ver
		}
	}
	pq := e.bndPQ[:0]
	for _, id := range stack {
		q := procs[id]
		switch q.par.kind {
		case parkRecv, parkSend, parkSel:
			if set[id] == ver {
				continue
			}
			val[id] = e.parkedTentative(q, val, set, ver)
			if val[id] != timeInf {
				pq.push(boundItem{val[id], id})
			}
		}
	}

	for len(pq) > 0 {
		it := pq.pop()
		i := it.pid
		if set[i] == ver || it.val > val[i] {
			continue
		}
		set[i] = ver
		// Lift the parked process's clock to its settled bound.
		p := procs[i]
		switch p.par.kind {
		case parkRecv, parkSend, parkSel:
			if val[i] != timeInf {
				liftClockRaw(p, val[i])
			}
		}
		for _, j := range rev[i] {
			if set[j] == ver {
				continue
			}
			q := procs[j]
			switch q.par.kind {
			case parkRecv, parkSend, parkSel:
				if nv := e.parkedTentative(q, val, set, ver); nv < val[j] {
					val[j] = nv
					if nv != timeInf {
						pq.push(boundItem{nv, j})
					}
				}
			}
		}
	}
	e.bndPQ = pq[:0]
	// Unsettled visited nodes are unreachable from any clock source: stuck.
	for _, id := range stack {
		if set[id] != ver {
			val[id] = timeInf
			set[id] = ver
		}
	}
	return val
}

// parkedTentative evaluates a parked process's wake-bound rule using only
// settled neighbor values (unsettled neighbors contribute infinity).
func (e *parEngine) parkedTentative(p *Process, val []Time, set []uint64, ver uint64) Time {
	pp := &p.par
	floor := clockOf(p)
	// A parked receiver can be woken by an element (sender clock +
	// latency) or by a close (sender clock, latency-free), so the
	// sender-dependent wake bound carries NO latency. Select's commit
	// rule, which reasons about elements only, adds the latency itself.
	senderTerm := func(c *chanCore) Time {
		sender := c.sender.Load()
		if sender == nil {
			return timeInf
		}
		j := sender.id
		if set[j] != ver || val[j] == timeInf {
			return timeInf
		}
		return val[j]
	}
	fwd := func(c *chanCore) Time {
		b := Time(c.headReadyA.Load())
		if c.closedA.Load() {
			if ct := Time(c.closeTimeA.Load()); ct < b {
				b = ct
			}
			return b
		}
		if st := senderTerm(c); st < b {
			b = st
		}
		return b
	}
	switch pp.kind {
	case parkRecv:
		b := fwd(pp.parkCh)
		if b == timeInf {
			return timeInf
		}
		if b < floor {
			b = floor
		}
		return b
	case parkSend:
		c := pp.parkCh
		if c.closedA.Load() || c.nRecvA.Load() >= pp.parkNeed {
			return floor
		}
		recver := c.recver.Load()
		if recver == nil {
			return floor
		}
		j := recver.id
		if set[j] != ver || val[j] == timeInf {
			return timeInf
		}
		b := val[j]
		if b < floor {
			b = floor
		}
		return b
	case parkSel:
		b := timeInf
		for _, c := range pp.parkSels {
			if f := fwd(c); f < b {
				b = f
			}
		}
		if b == timeInf {
			return timeInf
		}
		if b < floor {
			b = floor
		}
		return b
	default:
		return floor
	}
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

// selSnapshot captures the decision inputs of one channel. The frontier
// fields are filled strictly before the head fields (see selDecision).
type selSnapshot struct {
	sender     *Process
	senderDone bool
	frontier   Time
	headReady  Time
	closed     bool
	closeTime  Time
}

// selDecision evaluates the conservative EagerMerge rule: commit the
// earliest-visible head (ties to the lowest index) once every empty open
// channel's frontier — the bound of its sender's local clock plus the
// channel latency — proves no element can still become visible at or
// before the committed (time, index). bounds, when non-nil, supplies
// evaluator-computed sender bounds; otherwise raw sender clocks are used.
// Callers need no channel locks: all inputs are published atomically and
// the rule is stable (once committable, always committable).
func (e *parEngine) selDecision(cores []*chanCore, bounds []Time) (idx int, lift Time, decided bool) {
	var buf [32]selSnapshot
	var snaps []selSnapshot
	if len(cores) <= len(buf) {
		snaps = buf[:len(cores)]
	} else {
		snaps = make([]selSnapshot, len(cores))
	}
	// Frontiers MUST be read before the head snapshots: an element pushed
	// after the frontier read is either visible in the later head
	// snapshot or was sent at a clock >= the frontier we read (clocks are
	// monotone), so its ready time cannot undercut the frontier. Reading
	// heads first would let a send+advance race hide an earlier-ready
	// element behind an already-advanced frontier.
	for i, c := range cores {
		sn := &snaps[i]
		sn.sender = c.sender.Load()
		if sn.sender != nil {
			sn.senderDone = sn.sender.par.finishedA.Load()
			sn.frontier = clockOf(sn.sender)
		}
	}
	for i, c := range cores {
		sn := &snaps[i]
		sn.headReady = Time(c.headReadyA.Load())
		sn.closed = c.closedA.Load()
		sn.closeTime = Time(c.closeTimeA.Load())
	}
	best := -1
	var bestAt Time
	allDrained := true
	var maxClose Time
	for i, s := range snaps {
		if s.headReady != timeInf {
			allDrained = false
			if best == -1 || s.headReady < bestAt {
				best, bestAt = i, s.headReady
			}
			continue
		}
		if s.closed {
			if s.closeTime > maxClose {
				maxClose = s.closeTime
			}
			continue
		}
		allDrained = false
	}
	if allDrained {
		return -1, maxClose, true
	}
	if best == -1 {
		return 0, 0, false
	}
	for j, sn := range snaps {
		if sn.headReady != timeInf || sn.closed {
			continue
		}
		if sn.sender == nil {
			panic(fmt.Sprintf("des: parallel Select requires a bound sender on channel %q (use BindSender)", cores[j].label()))
		}
		if sn.senderDone {
			// A finished sender can never enqueue (nor close) this
			// channel: its frontier is infinite, so it cannot beat any
			// committed head. (The sequential engine behaves the same
			// way — nothing will ever wake the selector earlier.)
			continue
		}
		f := sn.frontier
		if bounds != nil && bounds[sn.sender.id] != timeInf && bounds[sn.sender.id] > f {
			f = bounds[sn.sender.id]
		}
		f += cores[j].latency
		if f < bestAt || (f == bestAt && j < best) {
			return 0, 0, false
		}
	}
	return best, bestAt, true
}

func (e *parEngine) sel(p *Process, cores []*chanCore) int {
	e.checkAbort()
	pp := &p.par
	for {
		if idx, lift, decided := e.selDecision(cores, nil); decided {
			e.liftClock(p, lift)
			return idx
		}
		g0 := pp.snapshotGen()
		wt := e.selMinHead(cores)
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
		pp.kind = parkSel
		pp.blockedVerb = "select"
		pp.parkSels = cores
		e.selParkedList = append(e.selParkedList, p)
		e.stateMu.Unlock()
		// Arm per-sender triggers, then re-check: any frontier crossing
		// after the trigger store signals us through the channel's
		// waiter list; any crossing before it is visible to this
		// re-check (sequentially consistent atomics). Either way no
		// wake is missed.
		e.armSelTriggers(cores, wt)
		if idx, lift, decided := e.selDecision(cores, nil); decided {
			e.stateMu.Lock()
			pp.kind = parkNone
			pp.blockedVerb = ""
			pp.parkSels = nil
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
	pp := &p.par
	pp.kind = parkNone
	pp.blockedVerb, pp.blockedCh = "", nil
	pp.parkCh = nil
	pp.parkSels = nil
	pp.watchTA.Store(uint64(timeInf))
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
