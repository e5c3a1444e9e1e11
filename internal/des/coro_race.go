//go:build race

package des

import (
	"iter"
	"runtime"
)

// pull is iter.Pull rebuilt from a goroutine and two channels, used only
// in race-detector builds. Go 1.24's runtime never releases an exited
// coroutine's race-detector state (coroexit skips racegoend), so a race
// build running millions of short-lived process coroutines grows by about
// 5 KB per process until it runs out of memory. The handoff is strict —
// exactly one of the caller and the body runs at a time — so the
// happens-before edges the race detector sees match the coroutine
// version's, and so do the semantics the engine relies on: next runs the
// body until it yields or returns, stop makes a parked yield return false
// and waits for the body to return, and a panic or runtime.Goexit in the
// body is re-raised in the caller.
func pull(body iter.Seq[struct{}]) (next func() (struct{}, bool), stop func()) {
	var (
		resume   = make(chan bool) // to the body: false asks it to unwind
		parked   = make(chan bool) // to the caller: false means the body is done
		started  bool
		done     bool
		stopping bool
		goexit   bool
		panicVal any
	)
	yield := func(struct{}) bool {
		if stopping {
			return false
		}
		parked <- true
		stopping = !<-resume
		return !stopping
	}
	start := func() {
		returned := false
		defer func() {
			if !returned {
				if panicVal = recover(); panicVal == nil {
					goexit = true
				}
			}
			parked <- false
		}()
		body(yield)
		returned = true
	}
	// reraise propagates a panic or Goexit of the finished body.
	reraise := func() {
		if goexit {
			runtime.Goexit()
		}
		if panicVal != nil {
			panic(panicVal)
		}
	}
	next = func() (struct{}, bool) {
		if done {
			return struct{}{}, false
		}
		if started {
			resume <- true
		} else {
			started = true
			go start()
		}
		if <-parked {
			return struct{}{}, true
		}
		done = true
		reraise()
		return struct{}{}, false
	}
	stop = func() {
		if done {
			return
		}
		done = true
		if !started {
			return
		}
		resume <- false
		<-parked
		reraise()
	}
	return next, stop
}
