//lint:hotpath per-event code: names stay lazy (func() string thunks), strings only materialize in panics and diagnostics

package des

import (
	"fmt"
	"sync"
)

// procState tracks where a process is in its lifecycle (sequential engine).
type procState int

const (
	stateReady procState = iota // spawned, not yet run
	stateRunning
	stateWaiting // yielded: sleeping on an event or parked on channels
	stateFinished
)

// seqProc is the sequential-engine per-process state.
type seqProc struct {
	state   procState
	episode uint64 // wait-episode counter; stale wake events are dropped
	// next and stop drive the process body's coroutine (iter.Pull),
	// created on the process's first dispatch: next resumes it until it
	// yields or returns, stop unwinds a parked one. yield is the
	// coroutine's side of the switch, returning false once stop has
	// been called.
	next    func() (struct{}, bool)
	stop    func()
	yield   func(struct{}) bool
	aborted bool
	serSeq  uint64
	// blockedVerb/blockedCh describe what the process is waiting for.
	// Kept as a static verb plus an optional channel so blocking never
	// allocates; the human-readable description is materialized only for
	// deadlock reports.
	blockedVerb string
	blockedCh   *chanCore
	// blockedSels is the channel set of a blocked Select (diagnostics
	// only; a slice-header assignment, so recording it never allocates).
	blockedSels []*chanCore
}

// event is a scheduled wake-up of a process.
type event struct {
	at      Time
	seq     uint64
	proc    *Process
	episode uint64
}

func eventLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a manual binary min-heap of events. container/heap would
// box every event into an interface on Push and Pop — two allocations per
// simulated wake — which profiling showed to be the simulator's single
// largest allocation source. The manual heap keeps events as values.
type eventHeap []event

func (h *eventHeap) pushEvent(ev event) {
	hs := append(*h, ev)
	i := len(hs) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(hs[i], hs[parent]) {
			break
		}
		hs[i], hs[parent] = hs[parent], hs[i]
		i = parent
	}
	*h = hs
}

func (h *eventHeap) popEvent() event {
	hs := *h
	top := hs[0]
	n := len(hs) - 1
	hs[0] = hs[n]
	hs[n] = event{} // drop the proc reference
	hs = hs[:n]
	*h = hs
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && eventLess(hs[l], hs[small]) {
			small = l
		}
		if r < n && eventLess(hs[r], hs[small]) {
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

// serReq is a pending Serialized critical section.
type serReq struct {
	t   Time
	pid int
	seq uint64
	p   *Process
}

func serLess(a, b serReq) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.pid != b.pid {
		return a.pid < b.pid
	}
	return a.seq < b.seq
}

// serHeap is a manual binary min-heap of Serialized requests (value-typed
// for the same no-boxing reason as eventHeap). Shared by both engines.
type serHeap []serReq

func (h *serHeap) pushReq(r serReq) {
	hs := append(*h, r)
	i := len(hs) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !serLess(hs[i], hs[parent]) {
			break
		}
		hs[i], hs[parent] = hs[parent], hs[i]
		i = parent
	}
	*h = hs
}

func (h *serHeap) popReq() serReq {
	hs := *h
	top := hs[0]
	n := len(hs) - 1
	hs[0] = hs[n]
	hs[n] = serReq{}
	hs = hs[:n]
	*h = hs
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && serLess(hs[l], hs[small]) {
			small = l
		}
		if r < n && serLess(hs[r], hs[small]) {
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

// seqEngine runs exactly one process at a time, dispatching wake events in
// (time, sequence) order so simulations are bit-for-bit reproducible
// regardless of goroutine scheduling.
//
// Each process body is a coroutine. run is the dispatch loop: it pops the
// next event or Serialized request, resumes that process's coroutine, and
// takes control back when the process blocks (yield) or returns. A process
// switch is therefore two coroutine switches and never passes through the
// Go scheduler. Only the running coroutine or the loop touches engine
// state, never both at once, so the one-at-a-time discipline needs no
// locks.
type seqEngine struct {
	sim      *Simulation
	nowT     Time
	events   eventHeap
	seq      uint64
	pending  serHeap
	live     int
	finish   Time
	firstErr error
	stats    SchedStats
}

func newSeqEngine(s *Simulation) *seqEngine {
	return &seqEngine{sim: s}
}

func (e *seqEngine) now(p *Process) Time { return e.nowT }

func (e *seqEngine) schedule(at Time, p *Process, episode uint64) {
	e.seq++
	e.events.pushEvent(event{at: at, seq: e.seq, proc: p, episode: episode})
}

// yield suspends the process's coroutine back to the dispatch loop until
// a wake event (or Serialized grant) resumes it.
func (e *seqEngine) yield(p *Process, verb string, ch *chanCore) {
	sp := &p.seq
	sp.episode++
	sp.state = stateWaiting
	sp.blockedVerb, sp.blockedCh = verb, ch
	if !sp.yield(struct{}{}) {
		panic(errAborted)
	}
	sp.blockedVerb, sp.blockedCh = "", nil
}

// pick pops the next process to run: the earliest valid wake event, or
// the first Serialized request when it is due no later. It advances the
// clock to the dispatch time and returns nil when nothing can ever
// progress again (deadlock).
func (e *seqEngine) pick() *Process {
	haveEv := e.hasValidEventAtOrBefore(timeInf)
	switch {
	case haveEv && (len(e.pending) == 0 || e.events[0].at <= e.pending[0].t):
		ev := e.events.popEvent()
		if ev.at > e.nowT {
			e.nowT = ev.at
		}
		return ev.proc
	case len(e.pending) > 0:
		r := e.pending.popReq()
		if r.t > e.nowT {
			e.nowT = r.t
		}
		return r.p
	}
	return nil
}

func (e *seqEngine) advance(p *Process, d Time) {
	nt := e.nowT + d
	e.stats.Lifts++
	// Fast path: when no other wake or critical section is due at or
	// before the target time, the dispatcher would pick this process's own
	// wake event next anyway — advance the clock inline and skip the
	// schedule/yield round-trip entirely. Common whenever the rest of the
	// pipeline is parked on channels (backpressured or starved), which is
	// exactly when a lone active stage ticks through its elements.
	if len(e.pending) == 0 && !e.hasValidEventAtOrBefore(nt) {
		e.stats.LiftFastPath++
		e.nowT = nt
		return
	}
	e.schedule(nt, p, p.seq.episode+1)
	e.yield(p, "advance", nil)
}

func (e *seqEngine) advanceTo(p *Process, t Time) {
	if t <= e.nowT {
		return
	}
	e.stats.Lifts++
	if len(e.pending) == 0 && !e.hasValidEventAtOrBefore(t) {
		e.stats.LiftFastPath++
		e.nowT = t
		return
	}
	e.schedule(t, p, p.seq.episode+1)
	e.yield(p, "advance-to", nil)
}

func (e *seqEngine) serialized(p *Process, fn func()) {
	if p.seq.aborted {
		panic(errAborted)
	}
	e.stats.Grants++
	// Fast path: with no queued request and no other wake at or before the
	// current time, this request is first in (time, pid, seq) order — no
	// other process can act before it, so run inline. This mirrors the
	// parallel engine's "all other local clocks have passed t" condition.
	if len(e.pending) == 0 && !e.hasValidEventAtOrBefore(e.nowT) {
		e.stats.GrantFastPath++
		fn()
		return
	}
	e.pending.pushReq(serReq{t: e.nowT, pid: p.id, seq: p.seq.serSeq, p: p})
	p.seq.serSeq++
	e.yield(p, "serialized", nil)
	fn()
}

// hasValidEventAtOrBefore prunes stale heap tops and reports whether a
// dispatchable event exists at or before t.
func (e *seqEngine) hasValidEventAtOrBefore(t Time) bool {
	for len(e.events) > 0 {
		top := e.events[0]
		if !e.eventValid(top) {
			e.events.popEvent()
			continue
		}
		return top.at <= t
	}
	return false
}

func (e *seqEngine) eventValid(ev event) bool {
	sp := &ev.proc.seq
	if sp.state == stateFinished || sp.state == stateRunning {
		return false
	}
	// Episode 0 events are the initial dispatch; otherwise the episode
	// must match the process's current wait episode.
	return ev.episode == 0 || ev.episode == sp.episode
}

// eventSlabPool recycles event-heap backing arrays across simulations: a
// session creates one Simulation per run and the heap regrows to roughly
// the same size every time, so the array is the textbook pooling case.
// Entries are zeroed before Put (they hold process pointers).
var eventSlabPool = sync.Pool{
	New: func() any {
		s := make(eventHeap, 0, 256)
		return &s
	},
}

func (e *seqEngine) run() (Time, error) {
	e.events = *eventSlabPool.Get().(*eventHeap)
	defer func() {
		clear(e.events[:cap(e.events)])
		slab := e.events[:0]
		eventSlabPool.Put(&slab)
		e.events = nil
	}()
	// Seed: every process starts at time 0 in spawn order.
	for _, p := range e.sim.procs {
		e.schedule(0, p, 0)
	}
	e.live = len(e.sim.procs)
	// A process that calls runtime.Goexit ends this goroutine too (see
	// iter.Pull); the deferred sweep still unwinds the parked rest.
	defer e.abortAll()
	for e.live > 0 && e.firstErr == nil {
		p := e.pick()
		if p == nil {
			e.firstErr = e.deadlockError()
			break
		}
		e.resume(p)
	}
	e.abortAll()
	if e.finish < e.nowT {
		e.finish = e.nowT
	}
	return e.finish, e.firstErr
}

// resume runs p's coroutine, starting it on first dispatch, until it
// yields or returns.
func (e *seqEngine) resume(p *Process) {
	sp := &p.seq
	if sp.next == nil {
		sp.next, sp.stop = pull(p.seqBody)
	}
	sp.state = stateRunning
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
	for _, p := range e.sim.procs {
		sp := &p.seq
		if sp.state == stateFinished {
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
func (e *seqEngine) finishProc(p *Process) {
	sp := &p.seq
	sp.state = stateFinished
	sp.next, sp.stop, sp.yield = nil, nil, nil
	e.live--
	if e.nowT > e.finish {
		e.finish = e.nowT
	}
	if p.err != nil && e.firstErr == nil {
		e.firstErr = procError(p)
	}
}

func (e *seqEngine) deadlockError() error {
	var refs []blockedRef
	for _, p := range e.sim.procs {
		if p.seq.state == stateFinished {
			continue
		}
		refs = append(refs, blockedRef{
			name: p.Name(),
			verb: p.seq.blockedVerb,
			on:   seqBlockedOn(&p.seq),
		})
	}
	return deadlockError(e.nowT, refs)
}

// seqBlockedOn names the resource a blocked process waits on, for
// grouping deadlock reports. Materialized only once deadlock is certain.
func seqBlockedOn(sp *seqProc) string {
	if sp.blockedCh != nil {
		//lint:allow hotpath deadlock-report formatting; runs once after the engine has already stopped
		return "chan " + sp.blockedCh.label()
	}
	if len(sp.blockedSels) > 0 {
		return selectLabel(sp.blockedSels)
	}
	return ""
}

func (e *seqEngine) schedStats() SchedStats { return e.stats }

// --- channel protocol -------------------------------------------------

func (e *seqEngine) sendReserve(c *chanCore, p *Process) int {
	if c.closed {
		panic(fmt.Sprintf("des: send on closed channel %q", c.label()))
	}
	for c.count >= c.cap {
		if c.seqSendWaiter != nil && c.seqSendWaiter != p {
			panic(fmt.Sprintf("des: channel %q has two senders", c.label()))
		}
		c.seqSendWaiter = p
		e.yield(p, "send", c)
		c.seqSendWaiter = nil
		if c.closed {
			panic(fmt.Sprintf("des: send on closed channel %q", c.label()))
		}
	}
	return c.tail()
}

func (e *seqEngine) sendPublish(c *chanCore, p *Process) {
	ready := e.nowT + c.latency
	c.push(ready)
	if w := c.seqRecvWaiter; w != nil {
		e.schedule(ready, w, w.seq.episode)
	}
}

func (e *seqEngine) recvWait(c *chanCore, p *Process) (int, bool) {
	for {
		if c.count > 0 {
			if ready := c.ready[c.head]; ready > e.nowT {
				// Sleep until the head becomes visible.
				e.schedule(ready, p, p.seq.episode+1)
				e.yield(p, "recv-latency", c)
				continue
			}
			return c.head, true
		}
		if c.closed {
			return 0, false
		}
		if c.seqRecvWaiter != nil && c.seqRecvWaiter != p {
			panic(fmt.Sprintf("des: channel %q has two receivers", c.label()))
		}
		c.seqRecvWaiter = p
		e.yield(p, "recv", c)
		c.seqRecvWaiter = nil
	}
}

func (e *seqEngine) recvRelease(c *chanCore, p *Process) {
	c.pop(e.nowT)
	if w := c.seqSendWaiter; w != nil {
		e.schedule(e.nowT, w, w.seq.episode)
	}
}

// recvMore releases the previously returned slot and, when the next head
// element is already visible, hands it out in the same step — the bulk
// dequeue primitive behind Chan.RecvUntil. Timing is identical to a
// recvRelease followed by a recvWait that found the element visible.
func (e *seqEngine) recvMore(c *chanCore, p *Process) (int, bool) {
	e.recvRelease(c, p)
	if c.count > 0 && c.ready[c.head] <= e.nowT {
		return c.head, true
	}
	return 0, false
}

func (e *seqEngine) closeChan(c *chanCore, p *Process) {
	if c.closed {
		panic(fmt.Sprintf("des: double close of channel %q", c.label()))
	}
	c.markClosed(e.nowT)
	if w := c.seqRecvWaiter; w != nil {
		e.schedule(e.nowT, w, w.seq.episode)
	}
	// A sender parked on a full channel must also observe the close (it
	// panics with the canonical "send on closed channel" report instead
	// of surfacing as a deadlocked process).
	if w := c.seqSendWaiter; w != nil {
		e.schedule(e.nowT, w, w.seq.episode)
	}
}

func (e *seqEngine) setSelWaiter(c *chanCore, p *Process) {
	if c.seqRecvWaiter != nil && c.seqRecvWaiter != p {
		panic(fmt.Sprintf("des: channel %q has two receivers", c.label()))
	}
	c.seqRecvWaiter = p
}

func (e *seqEngine) clearSelWaiter(c *chanCore, p *Process) {
	if c.seqRecvWaiter == p {
		c.seqRecvWaiter = nil
	}
}

func (e *seqEngine) sel(p *Process, cores []*chanCore) int {
	for {
		best := -1
		var bestAt Time
		allDrained := true
		for i, c := range cores {
			if !(c.closed && c.count == 0) {
				allDrained = false
			}
			if c.count == 0 {
				continue
			}
			at := c.ready[c.head]
			if best == -1 || at < bestAt {
				best, bestAt = i, at
			}
		}
		if best >= 0 {
			if bestAt > e.nowT {
				// Wait until the earliest head is visible, but remain
				// wakeable by earlier arrivals on the other channels.
				for _, c := range cores {
					e.setSelWaiter(c, p)
				}
				e.schedule(bestAt, p, p.seq.episode+1)
				p.seq.blockedSels = cores
				e.yield(p, "select-latency", nil)
				p.seq.blockedSels = nil
				for _, c := range cores {
					e.clearSelWaiter(c, p)
				}
				continue
			}
			return best
		}
		if allDrained {
			return -1
		}
		// Nothing queued anywhere: park on all channels.
		for _, c := range cores {
			e.setSelWaiter(c, p)
		}
		p.seq.blockedSels = cores
		e.yield(p, "select", nil)
		p.seq.blockedSels = nil
		for _, c := range cores {
			e.clearSelWaiter(c, p)
		}
	}
}
