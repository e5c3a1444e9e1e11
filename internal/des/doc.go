// Package des is a deterministic discrete-event simulation kernel modeled
// on the execution style of the Dataflow Abstract Machine (DAM) framework
// the paper's Rust simulator builds on: a program is a set of asynchronous
// processes (dataflow blocks) communicating over bounded, latency-annotated
// FIFO channels with backpressure.
//
// # Engines
//
// Two engines implement the same virtual-time semantics:
//
//   - The sequential engine (New, or NewWithWorkers(n) with n <= 1) runs
//     exactly one process at a time; a dispatch loop pops wake events in
//     (time, sequence) order. This is the reference engine. Each process
//     body runs as a coroutine (iter.Pull): the loop resumes the
//     process's coroutine, which runs until it blocks and yields back, so
//     a process switch is two coroutine switches and never goes through
//     the Go scheduler. Because the body runs on the coroutine that Run's
//     caller resumes, a process that calls runtime.Goexit ends Run's
//     caller too (Run does not return; the other processes are still
//     unwound).
//
//   - The parallel engine (NewWithWorkers(n) with n >= 2) is DAM-style
//     conservative parallel simulation: every process owns a *local* clock
//     and runs on its own goroutine; channels bridge time between
//     processes (a receiver adopts max(its clock, head-ready time); a
//     backpressured sender resumes at the virtual time its slot was freed,
//     recorded per dequeue, never at a wall-clock-dependent time). Select
//     and Serialized are the only conservative synchronization points:
//     they wait until the senders' published frontiers (local clock +
//     channel latency) prove that no earlier-visible element or
//     lower-ordered critical section can still arrive.
//
// # Determinism invariants
//
// Both engines produce identical per-process virtual-time traces — and
// therefore identical simulation results — for programs whose Select
// inputs and cross-process interactions go through channels with latency
// >= 1 (the graph executor's default). Every optimization in this
// package preserves that trace exactly; none are heuristics:
//
//   - The sequential engine's inline-advance fast path bumps the clock
//     without a scheduler round trip only when no other event or
//     serialized request could dispatch first, which is the same order
//     the slow path would have produced.
//   - RecvUntil's bulk dequeue takes additional elements only when they
//     are visible at the receiver's current virtual time, i.e. exactly
//     when a per-element Recv loop with no Advance in between would have
//     returned them at the same timestamps.
//   - The parallel engine's grantability cache stores lower bounds on
//     other processes' clocks; clocks are monotone, so a cached pass is
//     always sound and a cached fail falls back to a full rescan.
//
// Three of this package's invariants are additionally enforced
// statically by stepvet (make lint): the determinism analyzer rejects
// wall clocks, unseeded math/rand, and order-leaking map ranges; the
// lockdiscipline analyzer keeps the parallel engine's stateMu critical
// sections free of channel operations, blocking waits, and function-
// value calls; and the hotpath analyzer rejects eager string
// formatting in the //lint:hotpath-marked event-path files (par.go,
// seq.go, chan.go), where names must stay func() string thunks.
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
// slabs until Run has returned. The engine's own recycling is limited to storage with no
// user-visible identity: pooled event-heap backing arrays (pointer
// slots cleared before returning them to the pool) and the per-process
// Select scratch buffer. Elements themselves are never recycled by this
// package — whatever values flow through channels are owned by the
// processes that sent them.
package des
