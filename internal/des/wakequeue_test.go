package des

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refDispatcher is the sequential engine's dispatch rule written as
// linear scans over unordered lists: the reference the engine's run
// queue and Serialized request heap must match pick for pick. Runnable
// processes go in (clock, pid) order, requests in (time, pid, seq)
// order. Parked selectors in the model hold no elements, so they never
// hold back a grant.
type refDispatcher struct {
	runnable []runEntry
	pending  []serReq
}

func refRunLess(a, b runEntry) bool {
	return a.t < b.t || a.t == b.t && a.p.id < b.p.id
}

func refSerLess(a, b serReq) bool {
	return a.t < b.t || a.t == b.t && (a.pid < b.pid || a.pid == b.pid && a.seq < b.seq)
}

func (r *refDispatcher) grantable(t Time) bool {
	for _, re := range r.runnable {
		if re.t <= t {
			return false
		}
	}
	return true
}

func (r *refDispatcher) firstPending() int {
	best := -1
	for i, q := range r.pending {
		if best < 0 || refSerLess(q, r.pending[best]) {
			best = i
		}
	}
	return best
}

func (r *refDispatcher) pick() *Process {
	if i := r.firstPending(); i >= 0 && r.grantable(r.pending[i].t) {
		p := r.pending[i].p
		r.pending = slices.Delete(r.pending, i, i+1)
		return p
	}
	best := -1
	for i, re := range r.runnable {
		if best < 0 || refRunLess(re, r.runnable[best]) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	p := r.runnable[best].p
	r.runnable = slices.Delete(r.runnable, best, best+1)
	return p
}

// wakeCoverage counts the dispatcher paths a model run took: grants of a
// queued request, Serialized calls granted inline and queued, wakes that
// lifted a clock and wakes that did not, and selector wakes.
type wakeCoverage struct {
	grants, inline, queued, lifted, unlifted, selWakes int
}

// TestWakeQueueMatchesHeap drives the sequential engine's wake path (the
// run queue, the Serialized request heap and the grant rule) and
// refDispatcher through the same seeded operation sequences: wakes that
// lift a parked process's clock or leave it, Advance, Serialized calls
// granted inline or queued, processes parking on a channel or in a
// Select, and processes finishing. After every step both must agree on
// the process picked, its clock, the runnable set, the pending requests
// and the parked selectors, and both heaps must keep their order.
func TestWakeQueueMatchesHeap(t *testing.T) {
	var cov wakeCoverage
	for seed := int64(1); seed <= 200; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runWakeQueueModel(t, seed, &cov) })
	}
	// Every dispatcher path must have been exercised.
	t.Logf("%+v", cov)
	for _, n := range []int{cov.grants, cov.inline, cov.queued, cov.lifted, cov.unlifted, cov.selWakes} {
		if n == 0 {
			t.Fatalf("a dispatcher path went unexercised: %+v", cov)
		}
	}
}

func runWakeQueueModel(t *testing.T, seed int64, cov *wakeCoverage) {
	rng := rand.New(rand.NewSource(seed))
	procs := make([]*Process, 2+rng.Intn(7))
	e := &seqEngine{}
	ref := &refDispatcher{}
	for i := range procs {
		procs[i] = &Process{id: i}
		e.runq.push(runEntry{0, procs[i]})
		ref.runnable = append(ref.runnable, runEntry{0, procs[i]})
	}
	var selParked []*Process
	delays := []Time{0, 1, 1, 1, 2, 3, 7}
	ids := func(ps []*Process) []int {
		out := make([]int, len(ps))
		for i, p := range ps {
			out[i] = p.id
		}
		slices.Sort(out)
		return out
	}
	check := func(step int, what string) {
		t.Helper()
		for i := 1; i < len(e.runq); i++ {
			if runLess(e.runq[i], e.runq[(i-1)/2]) {
				t.Fatalf("step %d (%s): run queue out of heap order at %d", step, what, i)
			}
		}
		for i := 1; i < len(e.pending); i++ {
			if serLess(e.pending[i], e.pending[(i-1)/2]) {
				t.Fatalf("step %d (%s): request heap out of order at %d", step, what, i)
			}
		}
		got, want := slices.Clone([]runEntry(e.runq)), slices.Clone(ref.runnable)
		for _, s := range [][]runEntry{got, want} {
			slices.SortFunc(s, func(a, b runEntry) int {
				if refRunLess(a, b) {
					return -1
				}
				return 1
			})
		}
		if !slices.Equal(got, want) {
			t.Fatalf("step %d (%s): runnable\n got %v\nwant %v", step, what, got, want)
		}
		gotReq, wantReq := slices.Clone([]serReq(e.pending)), slices.Clone(ref.pending)
		for _, s := range [][]serReq{gotReq, wantReq} {
			slices.SortFunc(s, func(a, b serReq) int {
				if refSerLess(a, b) {
					return -1
				}
				return 1
			})
		}
		if !slices.Equal(gotReq, wantReq) {
			t.Fatalf("step %d (%s): pending requests\n got %v\nwant %v", step, what, gotReq, wantReq)
		}
		if g, w := ids(e.selParked), ids(selParked); !slices.Equal(g, w) {
			t.Fatalf("step %d (%s): parked selectors %v, reference %v", step, what, g, w)
		}
	}
	// wake makes a parked process runnable at its clock lifted to at, in
	// the engine and the reference.
	wake := func(w *Process, at Time) {
		want := max(w.seq.clock, at)
		if want > w.seq.clock {
			cov.lifted++
		} else {
			cov.unlifted++
		}
		if w.park.kind == parkSel {
			cov.selWakes++
			selParked = slices.DeleteFunc(selParked, func(q *Process) bool { return q == w })
		}
		ref.runnable = append(ref.runnable, runEntry{want, w})
		e.wake(w, at)
		if w.seq.clock != want || w.park.kind != parkNone {
			t.Fatalf("wake of %d at %d: clock %d park %d, want clock %d running", w.id, at, w.seq.clock, w.park.kind, want)
		}
	}
	// wakeable reports whether a channel or a Select can wake w: it is
	// parked, but not on a Serialized request, which only a grant ends.
	wakeable := func(w *Process) bool {
		return !w.seq.finished && w.park.kind != parkNone && w.park.kind != parkReq
	}
	for step := 0; step < 400; step++ {
		queued := len(e.pending)
		p, rp := e.pick(), ref.pick()
		if p != rp {
			t.Fatalf("step %d: picked %v, reference %v", step, p, rp)
		}
		check(step, "pick")
		if p == nil {
			// Everyone is parked or finished: wake one from outside, or
			// stop once every process has finished.
			i := slices.IndexFunc(procs, wakeable)
			if i < 0 {
				return
			}
			wake(procs[i], procs[i].seq.clock+delays[rng.Intn(len(delays))])
			check(step, "outside wake")
			continue
		}
		if len(e.pending) < queued {
			cov.grants++
		}
		if p.park.kind != parkNone {
			t.Fatalf("step %d: picked process %d is still parked (%d)", step, p.id, p.park.kind)
		}
		// The picked process acts until it parks or finishes.
		for turn := true; turn; {
			switch op := rng.Intn(100); {
			case op < 35: // wake another process, like a send or a close
				if w := procs[rng.Intn(len(procs))]; wakeable(w) {
					wake(w, p.seq.clock+1+delays[rng.Intn(len(delays))])
				}
			case op < 55: // Advance
				e.advance(p, delays[rng.Intn(len(delays))])
			case op < 75: // Serialized: granted inline, or queued until granted
				req := serReq{t: p.seq.clock, pid: p.id, seq: p.seq.serSeq, p: p}
				p.seq.serSeq++
				i := ref.firstPending()
				in := (len(e.pending) == 0 || serLess(req, e.pending[0])) && e.grantable(req.t)
				rin := (i < 0 || refSerLess(req, ref.pending[i])) && ref.grantable(req.t)
				if in != rin {
					t.Fatalf("step %d: inline grant at %d: %v, reference %v", step, req.t, in, rin)
				}
				if in {
					cov.inline++
					continue
				}
				cov.queued++
				e.pending.pushReq(req)
				ref.pending = append(ref.pending, req)
				p.park = parkState{kind: parkReq, verb: "serialized", reqT: req.t}
				turn = false
			case op < 85: // park in a Select
				p.park = parkState{kind: parkSel, verb: "select"}
				e.selParked = append(e.selParked, p)
				selParked = append(selParked, p)
				turn = false
			case op < 99: // park on a channel until someone wakes it
				p.park = parkState{kind: parkRecv, verb: "recv"}
				turn = false
			default:
				p.seq.finished = true
				turn = false
			}
		}
		check(step, "turn")
	}
}
