// Package graph represents STeP programs as dataflow graphs: nodes are
// operators, edges are streams. The builder verifies stream-shape
// alignment between producers and consumers at construction time (the
// paper's symbolic frontend does the same, §4.1), and the executor maps
// every node onto a discrete-event process communicating over bounded
// channels, mirroring how SDAs map dataflow graphs onto compute/memory
// units connected by hardware FIFOs (§2.2).
//
// # Execution lifecycle
//
// A graph is built, compiled, and run: Graph.Compile (or CompileIR,
// which decodes an IR program once) freezes it into its one Program, and
// Program.Run(opts...) is the only way to execute it. Operators are
// immutable configuration: per-run state lives in Run's locals, and
// per-run output (captures, stored tiles) is published with Ctx.Record
// into the run's Session. Each run takes the Program's idle binding (or
// builds one while a concurrent run holds it), binds it to a fresh
// simulation, machine model and counters, and puts it back afterwards,
// so runs of one Program are independent and fully parallel. The run
// seed reaches operators as Ctx.Seed; only IR content that drew seeded
// random tiles re-derives from it (Seeded).
//
// Determinism: channel latency is at least 1 (Program.Run refuses
// WithChannelLatency(0)), and every stream binds its producer and
// consumer, so a graph produces identical Results under the sequential
// and the conservative-parallel DES engine at any worker count
// (WithSimWorkers). The experiment
// harness and scenario sweeps rely on this to certify byte-identical
// tables across the engine matrix. stepvet (make lint) certifies the
// static half: the determinism analyzer rejects order-leaking map
// ranges and wall clocks in this package, and the equalfields analyzer
// requires every Result field to be compared in Result.Equal or
// excluded with a reasoned //lint:allow, so a new field cannot
// silently widen what "equal results" means.
//
// # The program IR
//
// Every Program built from the ops constructors serializes (Program.IR)
// to a canonical JSON construction replay that CompileIR loads back
// into an equal program. A Map, Accum or FlatMap node names its
// function with an ops.FnRef: a name in the ops function library, one
// registry whose entries rebuild each function and type and bound its
// argument (a chunk size, a KV-length table, an output tile type). So
// every paper workload (attention, MoE, SimpleMoE, SwiGLU) is an IR
// program; testdata/ir/paper-*.json pins one of each. Only a custom Go
// closure makes a program inexpressible, and IR names its node.
//
// Each operator kind is one entry of the ops package's op table
// (registerOp): its name, its typed attrs and their bounds, its input
// count, and a build calling the exported constructor. The entry
// registers the kind's decoder here (RegisterIROp) and is the only way
// a constructor records a node's IR (Node.SetIR), so encoding refuses
// attrs the loader would refuse, with the loader's message. BuildIR
// replays each node through its decoder, and a rebuilt node records the
// attrs it decoded, so a loaded program re-encodes as loaded.
//
// # The run arena
//
// The executor carves every stream channel's ring storage (ready and
// dequeue timestamps plus element slots) for a run out of one pooled
// slab instead of allocating per channel. Recycling rules:
//
//   - The slab is released back to the pool only after the simulation
//     has fully finished — des.Sim.Run returns only once every process
//     goroutine has exited — so no operator can still hold a channel
//     that indexes it.
//   - The arena recycles ring storage only, never the data flowing
//     through it: elements reference tile buffers owned by operators
//     and the memory model, and the element slots are cleared before
//     the slab is pooled so a recycled slab cannot keep tile memory
//     reachable.
//
// Run-wide statistics (element and stop-token counts) are plain atomic
// counters; operators may add to them in bulk because the totals are
// order-free.
package graph
