package des

// SchedStats counts the engines' scheduling work, making scheduler
// contention observable on any hardware: the counters depend on the
// virtual-time structure of the workload, not on core count or
// wall-clock interleaving, so a 1-CPU CI runner can assert the same
// O(waiters-on-this-endpoint) bounds a 64-core box would see.
//
// The sequential engine's counters are a pure function of the program.
// Its Advance is a plain clock bump with nothing to notify, and it does
// no wake-up scans, so Lifts, LiftFastPath and Scanned stay zero there. It
// counts every coroutine resume by its dispatch loop as Woken, each
// quiescent evaluation (the bound solver run when nothing is runnable) as
// a Kick, and Serialized calls as Grants (the inline ones as
// GrantFastPath).
//
// Each run reports its own counters (graph.Result.Sched). Nothing sums
// them process-wide: a sweep that wants totals adds its runs' counters
// itself (harness.Suite.Sched, printed by stepctl exp -schedstats).
type SchedStats struct {
	// Lifts is the number of committed local-clock lifts (Advance,
	// channel time bridging, Select commits). Every lift must answer
	// "did this unblock anyone?" — the counters below say how much work
	// that answer cost.
	Lifts uint64
	// LiftFastPath counts lifts that crossed no armed threshold (the
	// Serialized grant barrier, a Select frontier trigger) and therefore
	// did no notification work at all beyond two atomic loads.
	LiftFastPath uint64
	// Kicks is the number of scheduler evaluations: Serialized grant
	// attempts and quiescent-state frontier analyses.
	Kicks uint64
	// Scanned is the number of process/waiter entries examined by
	// scheduler scans (grant checks, barrier recounts, per-channel
	// select-trigger walks). Scanned/Lifts is the headline contention
	// figure: the pre-shard engine scanned the whole parked population
	// per lift; the sharded engine scans only plausibly unblocked waiters.
	Scanned uint64
	// Woken is the number of wake signals delivered to parked processes.
	Woken uint64
	// Grants is the number of Serialized critical sections granted;
	// GrantFastPath counts the subset granted inline without parking.
	Grants        uint64
	GrantFastPath uint64
}

// ScannedPerLift is Scanned/Lifts, the average scheduler work per clock
// movement (0 when no lifts happened).
func (s SchedStats) ScannedPerLift() float64 {
	if s.Lifts == 0 {
		return 0
	}
	return float64(s.Scanned) / float64(s.Lifts)
}

// Add accumulates o into s.
func (s *SchedStats) Add(o SchedStats) {
	s.Lifts += o.Lifts
	s.LiftFastPath += o.LiftFastPath
	s.Kicks += o.Kicks
	s.Scanned += o.Scanned
	s.Woken += o.Woken
	s.Grants += o.Grants
	s.GrantFastPath += o.GrantFastPath
}
