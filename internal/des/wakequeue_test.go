package des

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refDispatcher is the sequential engine's dispatcher as a single
// (time, seq) binary heap: the reference the three-queue wakeQueue must
// match pop for pop.
type refDispatcher struct {
	nowT    Time
	seq     uint64
	events  eventHeap
	pending serHeap
}

func (r *refDispatcher) schedule(at Time, p *Process, episode uint64) {
	r.seq++
	r.events.pushEvent(event{at: at, seq: r.seq, proc: p, episode: episode})
}

func (r *refDispatcher) hasValidEventAtOrBefore(t Time) bool {
	for len(r.events) > 0 {
		if !eventValid(r.events[0]) {
			r.events.popEvent()
			continue
		}
		return r.events[0].at <= t
	}
	return false
}

func (r *refDispatcher) pick() *Process {
	haveEv := r.hasValidEventAtOrBefore(timeInf)
	switch {
	case haveEv && (len(r.pending) == 0 || r.events[0].at <= r.pending[0].t):
		ev := r.events.popEvent()
		if ev.at > r.nowT {
			r.nowT = ev.at
		}
		return ev.proc
	case len(r.pending) > 0:
		return r.pending.popReq().p
	}
	return nil
}

func (r *refDispatcher) inlineTo(t Time) bool {
	if len(r.pending) > 0 || r.hasValidEventAtOrBefore(t) {
		return false
	}
	r.nowT = t
	return true
}

// validEvents lists the dispatchable events in (time, seq) order.
func validEvents(evs ...[]event) []event {
	var out []event
	for _, s := range evs {
		for _, ev := range s {
			if eventValid(ev) {
				out = append(out, ev)
			}
		}
	}
	slices.SortFunc(out, func(a, b event) int {
		if eventLess(a, b) {
			return -1
		}
		return 1
	})
	return out
}

// TestWakeQueueMatchesHeap drives the sequential engine's dispatcher and
// refDispatcher through the same seeded operation sequences: wakes due
// now, one cycle ahead and further out; inline clock moves (the Advance
// and Serialized fast paths); wakes made stale by a process running,
// re-parking or finishing; and pending Serialized requests. After every
// step both must agree on the process picked, the clock, and the exact
// set of dispatchable events left.
func TestWakeQueueMatchesHeap(t *testing.T) {
	var cov wakeCoverage
	for seed := int64(1); seed <= 200; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runWakeQueueModel(t, seed, &cov) })
	}
	// Every dispatcher path must have been exercised.
	t.Logf("%+v", cov)
	for _, n := range []int{cov.sameCycle, cov.nextCycle, cov.jump, cov.grants, cov.inline, cov.queued} {
		if n == 0 {
			t.Fatalf("a dispatcher path went unexercised: %+v", cov)
		}
	}
}

// wakeCoverage counts the dispatcher paths a model run took: picks at the
// current cycle, one cycle ahead and further out, Serialized grants, and
// fast-path clock moves taken and refused.
type wakeCoverage struct {
	sameCycle, nextCycle, jump, grants, inline, queued int
}

func runWakeQueueModel(t *testing.T, seed int64, cov *wakeCoverage) {
	rng := rand.New(rand.NewSource(seed))
	procs := make([]*Process, 2+rng.Intn(7))
	e := &seqEngine{}
	ref := &refDispatcher{}
	schedule := func(at Time, p *Process, episode uint64) {
		e.schedule(at, p, episode)
		ref.schedule(at, p, episode)
	}
	for i := range procs {
		procs[i] = &Process{id: i}
		schedule(0, procs[i], 0)
	}
	delays := []Time{0, 0, 1, 1, 1, 1, 2, 3, 7}
	check := func(step int, what string) {
		t.Helper()
		if e.nowT != ref.nowT {
			t.Fatalf("step %d (%s): clock %d, reference %d", step, what, e.nowT, ref.nowT)
		}
		q := &e.wakes
		got := validEvents(q.cur.evs[q.cur.head:], q.next.evs[q.next.head:], q.far)
		want := validEvents(ref.events)
		if !slices.Equal(got, want) {
			t.Fatalf("step %d (%s): dispatchable events\n got %v\nwant %v", step, what, got, want)
		}
		for _, ev := range q.cur.evs[q.cur.head:] {
			if ev.at != e.nowT {
				t.Fatalf("step %d (%s): cur holds an event due at %d, clock %d", step, what, ev.at, e.nowT)
			}
		}
		for _, ev := range q.next.evs[q.next.head:] {
			if ev.at != e.nowT+1 {
				t.Fatalf("step %d (%s): next holds an event due at %d, clock %d", step, what, ev.at, e.nowT)
			}
		}
	}
	// park ends p's turn like the engine's yield: a new wait episode, so
	// every wake queued for an earlier one is stale.
	park := func(p *Process) {
		p.seq.episode++
		p.seq.state = stateWaiting
	}
	for step := 0; step < 400; step++ {
		before, grants := e.nowT, len(e.pending)
		p, rp := e.pick(), ref.pick()
		if p != rp {
			t.Fatalf("step %d: picked %v, reference %v", step, p, rp)
		}
		check(step, "pick")
		switch {
		case p == nil:
			// Everyone is parked: wake one from outside, or stop
			// once every process has finished.
			for _, w := range procs {
				if w.seq.state == stateWaiting {
					schedule(e.nowT+delays[rng.Intn(len(delays))], w, w.seq.episode)
					break
				}
			}
			if len(e.wakes.cur.evs)+len(e.wakes.next.evs)+len(e.wakes.far) == 0 {
				return
			}
			continue
		case len(e.pending) < grants:
			cov.grants++
		case e.nowT == before:
			cov.sameCycle++
		case e.nowT == before+1:
			cov.nextCycle++
		default:
			cov.jump++
		}
		p.seq.state = stateRunning
		// The running process acts until it parks or finishes.
		for turn := true; turn; {
			switch op := rng.Intn(100); {
			case op < 40: // wake another process, like a send or a close
				if w := procs[rng.Intn(len(procs))]; w.seq.state == stateWaiting {
					ep := w.seq.episode
					if ep > 1 && rng.Intn(4) == 0 {
						ep-- // a wake for an episode already over
					}
					schedule(e.nowT+delays[rng.Intn(len(delays))], w, ep)
				}
			case op < 65: // Advance
				nt := e.nowT + delays[rng.Intn(len(delays))]
				in, rin := e.inlineTo(nt), ref.inlineTo(nt)
				if in != rin {
					t.Fatalf("step %d: inline advance to %d: %v, reference %v", step, nt, in, rin)
				}
				check(step, "advance")
				if in {
					cov.inline++
				} else {
					cov.queued++
					schedule(nt, p, p.seq.episode+1)
					park(p)
					turn = false
				}
			case op < 85: // Serialized
				in, rin := e.inlineTo(e.nowT), ref.inlineTo(ref.nowT)
				if in != rin {
					t.Fatalf("step %d: inline grant: %v, reference %v", step, in, rin)
				}
				if !in {
					r := serReq{t: e.nowT, pid: p.id, seq: p.seq.serSeq, p: p}
					p.seq.serSeq++
					e.pending.pushReq(r)
					ref.pending.pushReq(r)
					park(p)
					turn = false
				}
			case op < 99: // park on a channel until someone wakes it
				park(p)
				turn = false
			default:
				p.seq.state = stateFinished
				turn = false
			}
		}
		check(step, "turn")
	}
}
