// Package harness holds the experiment-running substrate shared by the
// paper's artifact registry (internal/experiments) and the declarative
// scenario subsystem (internal/scenario): the rendered Table type, the
// Suite configuration, and the bounded worker pool that fans independent
// sweep points out across CPUs.
//
// Invariants:
//
//   - Determinism: rendered tables are byte-identical at any
//     Suite.Workers setting and under either DES engine selected by
//     Suite.SimWorkers. ParMap writes each point's result into its own
//     index, so output order never depends on completion order; worker
//     counts may change wall time only. The simulation side of this
//     guarantee is enforced statically by stepvet's determinism
//     analyzer over the sim-affecting packages (make lint).
//   - Bounded concurrency at any depth: nested sweeps share one
//     worker-token pool (Suite.EnsurePool), so total concurrency stays
//     capped by Workers no matter how sweeps compose — and a sweep
//     point always runs on the goroutine that holds its token, never
//     on a hidden queue.
//   - First error wins, cancellation is bounded: ParMap returns the
//     first point error; points already in flight (each a
//     self-contained DES simulation) run to completion, so failure and
//     cancellation latency are bounded by one simulation, not the
//     sweep.
//   - Streaming observability: Suite.OnPoint fires once per executed
//     point — success, error, or panic — in completion order, carrying
//     (index, row, err, duration). Emission order is scheduling-
//     dependent; only the assembled table is deterministic. Every
//     firing happens before the point's ParMap call returns.
//   - Sweep-owned counters: every simulation of a sweep runs through
//     Suite.Run, which adds its scheduler counters to the totals
//     EnsurePool gave the suite (Suite.Sched). Separate suites never
//     share totals; nothing counts process-wide.
package harness
