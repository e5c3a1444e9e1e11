// Package des is a deterministic discrete-event simulation kernel modeled
// on the execution style of the Dataflow Abstract Machine (DAM) framework
// the paper's Rust simulator builds on: a program is a set of asynchronous
// processes (dataflow blocks) communicating over bounded, latency-annotated
// FIFO channels with backpressure.
//
// # Engines
//
// Two engines implement the same virtual-time protocol. Every process
// owns a *local* clock: Advance bumps it; channels bridge time between
// processes (a receiver adopts max(its clock, head-ready time); a
// backpressured sender resumes at the virtual time its slot was freed,
// recorded per dequeue, never at a wall-clock-dependent time). Select
// and Serialized are the only conservative synchronization points: a
// Select commits once its senders' frontiers (clock + channel latency)
// prove that no earlier-visible element can still arrive, and a
// Serialized section runs once no process can still act at or before
// its time. Both decision rules, and the bound solver that proves parked
// processes' next-action times when nothing else can move, live once in
// sched.go and read each engine's state through a small view interface.
//
//   - The sequential engine (New, or NewWithWorkers(n) with n <= 1) runs
//     exactly one process at a time, with no locks and no atomics. A
//     process runs until it blocks on a channel or waits for a
//     Serialized grant; the dispatch loop then grants the pending
//     Serialized head if no runnable process or parked Select could
//     still act at or before its time, and otherwise resumes the
//     runnable process with the lowest (clock, pid). Only when nothing
//     is runnable does it run the bound solver (a Kick). Each process
//     body runs as a coroutine (iter.Pull), so a process switch is two
//     coroutine switches and never goes through the Go scheduler.
//     Because the body runs on the coroutine that Run's caller resumes,
//     a process that calls runtime.Goexit ends Run's caller too (Run
//     does not return; the other processes are still unwound).
//
//   - The parallel engine (NewWithWorkers(n) with n >= 2) runs every
//     process on its own goroutine, DAM-style: clocks are atomics,
//     channels carry per-channel locks, and the wake-up machinery is
//     sharded by endpoint so a clock lift notifies only the thresholds
//     armed against it.
//
// # Determinism invariants
//
// Both engines produce identical per-process virtual-time traces and
// the same global Serialized order — and therefore identical simulation
// results — whatever order they happen to run processes in, provided
//
//   - every Select input has a sender, bound with BindSender or inferred
//     from an earlier send: its clock is the input's frontier, so Select
//     panics on an empty, open input without one; and
//   - every channel a Select or Serialized decision depends on has
//     latency >= 1, so nothing a process does at time t can become
//     visible to another at t. graph.Program.Run refuses latency 0.
//
// TestSeqTracePinned pins both on seeded random networks. Every
// optimization in this package preserves the traces exactly; none are
// heuristics:
//
//   - A woken process is queued at the clock it will adopt on resume
//     (the element's ready time, the dequeue time, the Select's commit
//     time), so the run queue's minimum is a lower bound on any
//     runnable process's next action, which is what the Serialized
//     grant needs.
//   - RecvUntil's bulk dequeue takes additional elements only when they
//     are visible at the receiver's current virtual time, i.e. exactly
//     when a per-element Recv loop with no Advance in between would have
//     returned them at the same timestamps.
//   - The parallel engine's grantability cache stores lower bounds on
//     other processes' clocks; clocks are monotone, so a cached pass is
//     always sound and a cached fail falls back to a full rescan.
//
// A failed run reports the failed process with the lowest (finish
// clock, pid) on both engines.
//
// Three of this package's invariants are additionally enforced
// statically by stepvet (make lint): the determinism analyzer rejects
// wall clocks, unseeded math/rand, and order-leaking map ranges; the
// lockdiscipline analyzer keeps the parallel engine's stateMu critical
// sections free of channel operations, blocking waits, and function-
// value calls; and the hotpath analyzer rejects eager string
// formatting in the //lint:hotpath-marked event-path files (par.go,
// seq.go, sched.go, chan.go), where names must stay func() string
// thunks.
//
// # Ownership and lifecycle
//
// Processes are plain Go functions; all Process methods must be called
// from the process's own body, between its start and its return. Run
// returns only after every process body has returned (normally, by
// error, or unwound by the abort sweep after a failure) and its
// goroutine or coroutine has exited, which is what makes external
// storage recycling safe — see below.
//
// Channel ring storage is normally engine-allocated (NewChan), but a
// caller may initialize channels in place with Chan.InitOn, carving the
// Chan structs from one slice and their rings from one arena slab. The
// engine only ever indexes those slices; it does not grow, alias, or
// retain them past Run. The caller in turn must not touch or recycle the
// slabs until Run has returned. The engine's own recycling is limited
// to storage with no user-visible identity: the pooled backing array
// of the sequential engine's run queue (pointer slots cleared before
// returning it to the pool) and the per-process Select scratch buffer.
// Elements themselves are never recycled by this package — whatever
// values flow through channels are owned by the processes that sent
// them.
package des
