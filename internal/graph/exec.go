package graph

import (
	"fmt"
	"sync"

	"step/internal/des"
	"step/internal/element"
	"step/internal/hbm"
	"step/internal/onchip"
)

// Machine is the simulated SDA a graph runs on: the shared off-chip memory,
// the on-chip scratchpad tier, and channel defaults.
type Machine struct {
	HBM  *hbm.HBM
	Spad *onchip.Scratchpad
	// ChannelDepth is the default FIFO depth for streams.
	ChannelDepth int
	// ChannelLatency is the default FIFO latency in cycles.
	ChannelLatency des.Time
}

// Config is the effective machine and engine settings of one run, as
// recorded in Session.Config. Callers set them with RunOptions
// (WithSimWorkers, WithOnchip, …) on top of DefaultConfig.
type Config struct {
	HBM            hbm.Config
	Onchip         onchip.Config
	ChannelDepth   int
	ChannelLatency des.Time
	// SimWorkers selects the DES engine executing the graph: 0 or 1 runs
	// the sequential reference engine; >= 2 runs the DAM-style
	// conservative parallel engine (per-process local clocks,
	// time-bridged channels). Both engines produce identical Results.
	SimWorkers int
	// Seed is handed to every operator (Ctx.Seed): IR content that
	// declares seeded random tiles derives from it, so one Program yields
	// an independent instance per seed. Go-built content ignores it.
	Seed uint64
}

// DefaultConfig matches the evaluation setup of §5.1.
func DefaultConfig() Config {
	return Config{
		HBM:            hbm.DefaultConfig(),
		Onchip:         onchip.DefaultConfig(),
		ChannelDepth:   16,
		ChannelLatency: 1,
	}
}

// Result summarizes a simulated run.
type Result struct {
	// Cycles is the total execution time (first event to last).
	Cycles des.Time
	// OffchipTrafficBytes is total bytes moved to/from off-chip memory.
	OffchipTrafficBytes int64
	OffchipReadBytes    int64
	OffchipWriteBytes   int64
	// PeakOnchipBytes is the scratchpad high-water mark measured during
	// the run (dynamic allocations only; see Graph.SymbolicOnchipBytes for
	// the §4.2 requirement equation).
	PeakOnchipBytes int64
	// TotalFLOPs is the work performed by compute operators.
	TotalFLOPs int64
	// AllocatedComputeBW sums the FLOPs/cycle allocated across operators.
	AllocatedComputeBW int64
	// Sched reports the DES engine's scheduler counters for the run
	// (see des.SchedStats for what each engine counts). Deliberately
	// excluded from result equality: the counters describe how the
	// engine coordinated, not what the simulation computed.
	Sched des.SchedStats
}

// Equal reports whether two results describe the same simulation
// outcome. The scheduler-contention counters are excluded: for
// byte-identical runs they vary across engines and worker counts,
// because they describe how the engine coordinated rather than what
// the simulation computed. Determinism checks must use this instead
// of ==.
func (r Result) Equal(o Result) bool {
	//lint:allow equalfields Sched: engine-coordination counters, not simulation output; they differ across engines and worker counts for byte-identical runs
	return r.Cycles == o.Cycles &&
		r.OffchipTrafficBytes == o.OffchipTrafficBytes &&
		r.OffchipReadBytes == o.OffchipReadBytes &&
		r.OffchipWriteBytes == o.OffchipWriteBytes &&
		r.PeakOnchipBytes == o.PeakOnchipBytes &&
		r.TotalFLOPs == o.TotalFLOPs &&
		r.AllocatedComputeBW == o.AllocatedComputeBW
}

// ComputeUtilization is TotalFLOPs / (AllocatedComputeBW × Cycles).
func (r Result) ComputeUtilization() float64 {
	if r.AllocatedComputeBW == 0 || r.Cycles == 0 {
		return 0
	}
	return float64(r.TotalFLOPs) / (float64(r.AllocatedComputeBW) * float64(r.Cycles))
}

// OperationalIntensity is FLOPs per off-chip byte — the Roofline x-axis
// the symbolic frontend exposes (§4.2).
func (r Result) OperationalIntensity() float64 {
	if r.OffchipTrafficBytes == 0 {
		return 0
	}
	return float64(r.TotalFLOPs) / float64(r.OffchipTrafficBytes)
}

// OffchipBWUtilization is achieved / peak off-chip bandwidth.
func (r Result) OffchipBWUtilization(peakBytesPerCycle int64) float64 {
	if r.Cycles == 0 || peakBytesPerCycle == 0 {
		return 0
	}
	return float64(r.OffchipTrafficBytes) / (float64(peakBytesPerCycle) * float64(r.Cycles))
}

// ringSlab is the per-run channel arena: the ring metadata (ready +
// dequeue times) and value storage for every stream channel of a run,
// carved from two slices and recycled through ringSlabPool. The slab may
// only be recycled after the simulation has fully finished — every process
// has returned — which run guarantees before releasing it.
type ringSlab struct {
	times []des.Time
	vals  []element.Element
}

//lint:allow determinism a slab's slots are overwritten before they are read, so no run observes what an earlier one left
var ringSlabPool = sync.Pool{New: func() any { return &ringSlab{} }}

// acquireRingSlab returns a slab with room for totalDepth channel slots.
func acquireRingSlab(totalDepth int) *ringSlab {
	s := ringSlabPool.Get().(*ringSlab)
	if cap(s.times) < 2*totalDepth {
		s.times = make([]des.Time, 2*totalDepth)
	}
	if cap(s.vals) < totalDepth {
		s.vals = make([]element.Element, totalDepth)
	}
	s.times = s.times[:2*totalDepth]
	s.vals = s.vals[:totalDepth]
	return s
}

// releaseRingSlab clears the value storage (elements reference tile
// buffers; a pooled slab must not keep them live) and recycles the slab.
func releaseRingSlab(s *ringSlab) {
	clear(s.vals[:cap(s.vals)])
	ringSlabPool.Put(s)
}

// run validates the graph, maps every node to a DES process and every
// stream to a bounded channel on binding b, and executes to completion.
// It returns what each node recorded (Ctx.Record), indexed by node ID.
// Operators keep no per-run state, so runs of one graph on distinct
// bindings may overlap.
func (g *Graph) run(cfg Config, b *binding) (Result, []any, error) {
	if err := g.Finalize(); err != nil {
		return Result{}, nil, fmt.Errorf("graph: invalid program: %w", err)
	}
	if cfg.ChannelDepth < 1 {
		cfg.ChannelDepth = 1
	}
	sim := des.NewWithWorkers(cfg.SimWorkers)
	machine := &Machine{
		HBM:            hbm.New(cfg.HBM),
		Spad:           onchip.New(cfg.Onchip),
		ChannelDepth:   cfg.ChannelDepth,
		ChannelLatency: cfg.ChannelLatency,
	}
	counters := &Counters{}

	// Channel depths are known up front, so every channel's ring storage is
	// carved out of one pooled slab instead of three allocations per stream.
	// The slab is released after the simulation has fully finished (all
	// processes returned inside sim.Run).
	streamDepth := func(s *Stream) int {
		if s.depth > 0 {
			return s.depth
		}
		return cfg.ChannelDepth
	}
	totalDepth := 0
	for _, s := range g.streams {
		totalDepth += streamDepth(s)
	}
	slab := acquireRingSlab(totalDepth)
	defer releaseRingSlab(slab)

	defer b.unbind()
	off := 0
	for i, s := range g.streams {
		depth := streamDepth(s)
		b.chans[i].InitOn(sim, b.chanNames[i], depth, cfg.ChannelLatency,
			slab.times[2*off:2*off+depth], slab.times[2*off+depth:2*off+2*depth],
			slab.vals[off:off+depth])
		off += depth
	}
	for i := range g.nodes {
		ctx := &b.ctxs[i]
		ctx.Machine, ctx.Counters, ctx.Seed = machine, counters, cfg.Seed
		b.procs[i] = sim.SpawnFn(b.procNames[i], b.bodies[i])
	}
	// Bind every channel to its producing and consuming process: the
	// parallel engine's conservative Select and wake-bound propagation
	// need the sender's local clock as each channel's time frontier.
	for i, s := range g.streams {
		ch := &b.chans[i]
		if s.prod != nil {
			ch.BindSender(b.procs[s.prod.ID])
		}
		if s.cons != nil {
			ch.BindRecver(b.procs[s.cons.ID])
		}
	}
	cycles, err := sim.Run()
	// Deterministic deferred scratchpad accounting: one replay of the
	// event log in (time, process, order) order yields the peak and any
	// capacity violation.
	_, peakOnchip, spadErr := machine.Spad.Resolve()
	res := Result{
		Cycles:              cycles,
		OffchipTrafficBytes: machine.HBM.TrafficBytes(),
		OffchipReadBytes:    machine.HBM.ReadBytes(),
		OffchipWriteBytes:   machine.HBM.WriteBytes(),
		PeakOnchipBytes:     peakOnchip,
		TotalFLOPs:          counters.FLOPs,
		AllocatedComputeBW:  g.AllocatedComputeBW(),
	}
	res.Sched = sim.SchedStats()
	if err == nil {
		err = spadErr
	}
	if err != nil {
		return res, nil, fmt.Errorf("graph: run failed: %w", err)
	}
	records := make([]any, len(b.ctxs))
	for i := range b.ctxs {
		records[i] = b.ctxs[i].record
	}
	return res, records, nil
}

// binding is a graph's executable skeleton: one channel per stream, one
// Ctx per node with its In/Out edge slices, and the name and body
// closures handed to the simulation, all indexed by stream and node ID.
// A binding serves one run at a time; Program.Run reuses its idle one
// and rebinds it to a fresh simulation.
type binding struct {
	chans     []Chan
	ctxs      []Ctx
	procs     []*des.Process
	chanNames []func() string
	procNames []func() string
	bodies    []func(*des.Process) error
}

func newBinding(g *Graph) *binding {
	b := &binding{
		chans:     make([]Chan, len(g.streams)),
		ctxs:      make([]Ctx, len(g.nodes)),
		procs:     make([]*des.Process, len(g.nodes)),
		chanNames: make([]func() string, len(g.streams)),
		procNames: make([]func() string, len(g.nodes)),
		bodies:    make([]func(*des.Process) error, len(g.nodes)),
	}
	for i, s := range g.streams {
		// Names are formatted only if a diagnostic (deadlock report,
		// channel misuse panic) needs them.
		b.chanNames[i] = func() string {
			return fmt.Sprintf("s%d:%s->%s", s.id, producerName(s), consumerName(s))
		}
	}
	nEdges := 0
	for _, n := range g.nodes {
		nEdges += len(n.Inputs) + len(n.Outputs)
	}
	edges := make([]*Chan, nEdges)
	carve := func(streams []*Stream) []*Chan {
		k := len(streams)
		out := edges[:k:k]
		edges = edges[k:]
		for j, s := range streams {
			out[j] = &b.chans[s.id]
		}
		return out
	}
	for i, node := range g.nodes {
		ctx := &b.ctxs[i]
		ctx.In = carve(node.Inputs)
		ctx.Out = carve(node.Outputs)
		b.procNames[i] = func() string {
			return fmt.Sprintf("n%d:%s", node.ID, node.Op.Name())
		}
		b.bodies[i] = func(p *des.Process) error {
			ctx.P = p
			return node.Op.Run(ctx)
		}
	}
	return b
}

// unbind drops every reference a finished run left in the binding, so a
// compiled graph does not pin its last simulation, machine, ring slab or
// recordings.
func (b *binding) unbind() {
	clear(b.chans)
	clear(b.procs)
	for i := range b.ctxs {
		ctx := &b.ctxs[i]
		ctx.P, ctx.Machine, ctx.Counters, ctx.record = nil, nil, nil, nil
	}
}

func consumerName(s *Stream) string {
	if s.cons == nil {
		return "?"
	}
	return s.cons.Op.Name()
}
