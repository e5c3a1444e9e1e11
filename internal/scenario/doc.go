// Package scenario turns experiment campaigns into data: a Spec (Go
// struct with a JSON file format) declares a model (built-in by name or
// fully inline), a workload kind, and sweep axes, and Run compiles the
// resulting grid onto the existing workload entry points
// (BuildMoELayer, BuildAttention, RunDecoder), fanning the points out
// through the shared harness worker pool and rendering the same Table
// type the paper artifacts use.
//
// The paper's pure-sweep figures (9, 10, 15, 19, 20) are re-registered
// as canned specs (see builtin.go), so the declarative path and the
// artifact registry share one implementation; beyond-the-paper families
// (GQA-ratio, long-context decode, mixed serving) ship as canned specs
// and as committed JSON examples under examples/specs/.
//
// Invariants the rest of the system builds on:
//
//   - Determinism: a spec's rendered table is byte-identical at any
//     harness worker count and under either DES engine. Specs may
//     declare a WorkersAxis x SimWorkersAxis matrix; Run then executes
//     the sweep once per setting and fails unless all renderings match,
//     turning the guarantee into a declarative check. Statically,
//     stepvet's determinism analyzer covers this package too; the only
//     wall-clock reads are the per-point durations reported through
//     OnPoint, suppressed with reasons because they never reach sim
//     state.
//   - Canonical identity: Canonicalize and CanonicalJSON produce a
//     normalized, stable serialization of a spec — defaults filled,
//     aliases spelled one way, fields ordered deterministically — and
//     those bytes are the only spec-derived input to the result-cache
//     key (internal/store). Every sweep (Run, RunPoint, PointCount,
//     TilingSweep) runs from the canonical form, so Canonicalize is the
//     one place defaults and aliases are resolved: two specs with equal
//     canonical bytes simulate and render identically by construction,
//     and anything that changes rendered output must change the
//     canonical form.
//   - Specs are plain values: Run does not mutate its Spec argument, so
//     a spec loaded once may be submitted concurrently (the service
//     layer relies on this).
//   - Streaming equals batch: RunStream emits every table row through a
//     Sink as its sweep point completes (out of order, carrying the
//     row's final index and axis coordinates), and Run is RunStream
//     with an empty sink — rows are rendered once, in the hook, so the
//     streamed cells and the finished table are identical bytes by
//     construction. Under a WorkersAxis/SimWorkersAxis matrix only the
//     first cell streams; the rest verify silently.
//   - Adding a kind: a kind is a plan (run.go) — a header, a point
//     count, a row group size, a self-contained point function, and
//     its row and note arithmetic — built by one case of Spec.plan.
//     Building a plan resolves axes only (PointCount builds one on the
//     service submit path). The generic driver alone owns streaming,
//     single-point mode (RunPoint), remote dispatch, the header
//     override, and the Compare pivot, so a new kind inherits all of
//     them and Spec.PointCount stays exact without a per-kind case.
package scenario
