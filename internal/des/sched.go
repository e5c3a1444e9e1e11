//lint:hotpath per-event code: names stay lazy (func() string thunks), strings only materialize in panics and diagnostics

package des

import "fmt"

// This file holds the virtual-time rules both engines share: what a
// blocked process waits on, Select's commit rule, the bound solver that
// proves parked processes' next-action times at quiescence, the
// Serialized request order, and the choice of the error a failed run
// reports. The engines differ only in how they read the state the rules
// consume (atomics under the parallel engine, plain fields under the
// sequential one), which the view interface abstracts.

// parkKind classifies why a process is blocked.
type parkKind uint8

const (
	parkNone    parkKind = iota
	parkRecv             // waiting for an element or close
	parkSend             // waiting for a freed slot (backpressure) or close
	parkSel              // waiting for a committable Select decision
	parkReq              // waiting for a Serialized grant
	parkGranted          // granted, running (or about to run) its critical section
)

// parkState is what a blocked process waits on. The parallel engine
// guards it by its stateMu; the sequential engine by running one process
// at a time. verb and ch (or sels) also name the block in deadlock
// reports, so blocking records only a static verb and pointers.
type parkState struct {
	kind parkKind
	verb string
	ch   *chanCore   // parkRecv / parkSend
	sels []*chanCore // parkSel
	need int64       // parkSend: the nRecv count being waited for
	reqT Time        // parkReq: request time
}

// blockedOn names the resource a blocked process waits on, for grouping
// deadlock reports. Materialized only once deadlock is certain.
func (ps *parkState) blockedOn() string {
	if ps.ch != nil {
		//lint:allow hotpath deadlock-report formatting; runs once after the engine has already stopped
		return "chan " + ps.ch.label()
	}
	if ps.kind == parkSel && len(ps.sels) > 0 {
		return selectLabel(ps.sels)
	}
	return ""
}

// view is the engine state the shared rules read: local clocks, whether a
// process has finished, and each channel's head, close and dequeue
// count. lift raises a parked process's clock to a proven lower bound of
// its next action time.
type view interface {
	clock(p *Process) Time
	done(p *Process) bool
	headReady(c *chanCore) Time // timeInf when empty
	closedAt(c *chanCore) (Time, bool)
	received(c *chanCore) int64
	lift(p *Process, t Time)
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
// bound-solver sender bounds; otherwise raw sender clocks are used. The
// rule is stable: once committable, always committable, so the parallel
// engine may evaluate it without channel locks.
func selDecision(v view, cores []*chanCore, bounds []Time) (idx int, lift Time, decided bool) {
	var buf [32]selSnapshot
	var snaps []selSnapshot
	if len(cores) <= len(buf) {
		snaps = buf[:len(cores)]
	} else {
		snaps = make([]selSnapshot, len(cores))
	}
	// Frontiers MUST be read before the head snapshots: under the
	// parallel engine an element pushed after the frontier read is either
	// visible in the later head snapshot or was sent at a clock >= the
	// frontier read (clocks are monotone), so its ready time cannot
	// undercut the frontier. Reading heads first would let a send+advance
	// race hide an earlier-ready element behind an already-advanced
	// frontier.
	for i, c := range cores {
		sn := &snaps[i]
		sn.sender = c.sender.Load()
		if sn.sender != nil {
			sn.senderDone = v.done(sn.sender)
			sn.frontier = v.clock(sn.sender)
		}
	}
	for i, c := range cores {
		sn := &snaps[i]
		sn.headReady = v.headReady(c)
		sn.closeTime, sn.closed = v.closedAt(c)
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
	for j, sn := range snaps {
		if sn.headReady != timeInf || sn.closed {
			continue
		}
		if sn.sender == nil {
			panic(fmt.Sprintf("des: Select requires a bound sender on channel %q (use BindSender)", cores[j].label()))
		}
		if best == -1 || sn.senderDone {
			// A finished sender can never enqueue (nor close) this
			// channel: its frontier is infinite, so it cannot beat any
			// committed head.
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
	if best == -1 {
		return 0, 0, false
	}
	return best, bestAt, true
}

// selMinHead returns the earliest visibility time among elements already
// queued on a Select's channels (timeInf when none).
func selMinHead(v view, cores []*chanCore) Time {
	best := timeInf
	for _, c := range cores {
		if hr := v.headReady(c); hr < best {
			best = hr
		}
	}
	return best
}

// --- the bound solver ----------------------------------------------------

// boundItem is one entry of the bound solver's priority queue.
type boundItem struct {
	val Time
	pid int
}

// boundPQ is the bound solver's lazy priority queue (manual heap: the
// container/heap interface would box every item).
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

// boundSolver holds the bound solver's scratch buffers, reused across
// evaluations.
type boundSolver struct {
	val   []Time
	set   []uint64 // settled-version stamps
	vis   []uint64 // visited-version stamps
	ver   uint64
	rev   [][]int
	stack []int
	pq    boundPQ
}

// solve computes, as a least fixpoint, the per-process next-action lower
// bounds
//
//	B(q) = max(clock_q, wake-bound from what q is parked on)
//
// where a channel's forward bound is min(head ready, close time,
// sender bound + latency). Dijkstra with per-node floors: processes settle
// in increasing bound order, so latency-0 cycles terminate and genuinely
// stuck subgraphs settle at infinity. Parked processes' clocks are lifted
// to their bounds (safe: a bound never exceeds the clock value the
// process adopts when it actually wakes). Only the sub-graph that can
// influence a parked Select (selParked) is visited. The caller holds the
// engine still: no process runs during solve.
func (b *boundSolver) solve(v view, procs, selParked []*Process) []Time {
	n := len(procs)
	if cap(b.val) < n {
		b.val = make([]Time, n)
		b.set = make([]uint64, n)
		b.vis = make([]uint64, n)
		b.rev = make([][]int, n)
	}
	val := b.val[:n]
	set := b.set[:n]
	vis := b.vis[:n]
	rev := b.rev[:n]
	b.ver++
	ver := b.ver
	stack := b.stack[:0]

	// Collect only the sub-graph that can influence a parked Select: the
	// empty-open channels' senders, transitively through parked processes.
	push := func(q *Process) {
		if q != nil && vis[q.id] != ver {
			vis[q.id] = ver
			rev[q.id] = rev[q.id][:0]
			stack = append(stack, q.id)
		}
	}
	for _, p := range selParked {
		for _, c := range p.park.sels {
			if _, closed := v.closedAt(c); v.headReady(c) == timeInf && !closed {
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
		switch q.park.kind {
		case parkRecv:
			dep(q.park.ch.sender.Load(), q.id)
		case parkSend:
			dep(q.park.ch.recver.Load(), q.id)
		case parkSel:
			for _, c := range q.park.sels {
				dep(c.sender.Load(), q.id)
			}
		}
	}
	b.stack = stack

	// Settle base nodes, then seed parked tentatives from them.
	for _, id := range stack {
		q := procs[id]
		switch {
		case v.done(q):
			val[id] = timeInf
			set[id] = ver
		case q.park.kind == parkReq:
			val[id] = q.park.reqT
			set[id] = ver
		case q.park.kind == parkNone || q.park.kind == parkGranted:
			val[id] = v.clock(q)
			set[id] = ver
		}
	}
	pq := b.pq[:0]
	for _, id := range stack {
		q := procs[id]
		switch q.park.kind {
		case parkRecv, parkSend, parkSel:
			if set[id] == ver {
				continue
			}
			val[id] = b.tentative(v, q)
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
		switch p.park.kind {
		case parkRecv, parkSend, parkSel:
			if val[i] != timeInf {
				v.lift(p, val[i])
			}
		}
		for _, j := range rev[i] {
			if set[j] == ver {
				continue
			}
			q := procs[j]
			switch q.park.kind {
			case parkRecv, parkSend, parkSel:
				if nv := b.tentative(v, q); nv < val[j] {
					val[j] = nv
					if nv != timeInf {
						pq.push(boundItem{nv, j})
					}
				}
			}
		}
	}
	b.pq = pq[:0]
	// Unsettled visited nodes are unreachable from any clock source: stuck.
	for _, id := range stack {
		if set[id] != ver {
			val[id] = timeInf
			set[id] = ver
		}
	}
	return val
}

// tentative evaluates a parked process's wake-bound rule using only
// settled neighbor values (unsettled neighbors contribute infinity).
func (b *boundSolver) tentative(v view, p *Process) Time {
	ps := &p.park
	floor := v.clock(p)
	settled := func(q *Process) Time {
		if q == nil {
			return timeInf
		}
		if j := q.id; b.set[j] == b.ver {
			return b.val[j]
		}
		return timeInf
	}
	// A parked receiver can be woken by an element (sender clock +
	// latency) or by a close (sender clock, latency-free), so the
	// sender-dependent wake bound carries NO latency. Select's commit
	// rule, which reasons about elements only, adds the latency itself.
	fwd := func(c *chanCore) Time {
		f := v.headReady(c)
		if ct, closed := v.closedAt(c); closed {
			return min(f, ct)
		}
		return min(f, settled(c.sender.Load()))
	}
	var bound Time
	switch ps.kind {
	case parkRecv:
		bound = fwd(ps.ch)
	case parkSend:
		c := ps.ch
		if _, closed := v.closedAt(c); closed || v.received(c) >= ps.need {
			return floor
		}
		recver := c.recver.Load()
		if recver == nil {
			return floor
		}
		bound = settled(recver)
	case parkSel:
		bound = timeInf
		for _, c := range ps.sels {
			bound = min(bound, fwd(c))
		}
	default:
		return floor
	}
	if bound == timeInf {
		return timeInf
	}
	return max(bound, floor)
}

// --- Serialized requests -------------------------------------------------

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

// serHeap is a manual binary min-heap of Serialized requests, value-typed
// so a request is never boxed into an interface.
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

// --- the end of a run ------------------------------------------------------

// runResult is what Run reports once every process has finished or been
// unwound: the failed process with the lowest (finish clock, spawn id)
// wins, so the report does not depend on the order processes ran in;
// otherwise the deadlock, if any; and the latest finish clock.
func runResult(procs []*Process, deadlock error) (Time, error) {
	var failed *Process
	var finish Time
	for _, p := range procs {
		finish = max(finish, p.finishClock)
		if p.err == nil {
			continue
		}
		if failed == nil || p.finishClock < failed.finishClock ||
			(p.finishClock == failed.finishClock && p.id < failed.id) {
			failed = p
		}
	}
	switch {
	case failed != nil:
		return failed.finishClock, procError(failed)
	case deadlock != nil:
		return finish, deadlock
	default:
		return finish, nil
	}
}

// deadlockAt formats the deadlock report for the unfinished processes,
// dated at the latest clock among them.
func deadlockAt(v view, procs []*Process) error {
	var refs []blockedRef
	var at Time
	for _, p := range procs {
		if v.done(p) {
			continue
		}
		at = max(at, v.clock(p))
		refs = append(refs, blockedRef{name: p.Name(), verb: p.park.verb, on: p.park.blockedOn()})
	}
	return deadlockError(at, refs)
}
