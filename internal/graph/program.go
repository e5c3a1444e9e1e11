package graph

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"step/internal/des"
	"step/internal/element"
	"step/internal/hbm"
	"step/internal/onchip"
	"step/internal/symbolic"
)

// Program is an immutable, validated STeP program: the artifact
// Graph.Compile (or CompileIR) produces, and the only way to run one.
// Compilation runs the builder's shape verification (Finalize) and
// freezes the graph against further structural mutation; the symbolic
// §4.2 metric equations derive on demand. Like an SDA configuration
// loaded once and streaming any number of inputs, a Program runs any
// number of times, concurrently from any goroutine: its operators are
// immutable configuration, and each Run owns its engine state
// (channels, machine model, counters) and its operators' recordings.
type Program struct {
	name string
	src  *Graph

	// The IR encodes lazily: workload builders compile thousands of
	// programs per sweep and never ask for the wire form, so paying the
	// serialization on Compile would tax every sweep point.
	irOnce sync.Once
	ir     *ProgramIR
	irErr  error

	// The §4.2 metric equations also derive lazily (same rationale), and
	// each on its own: a sweep point usually evaluates only one of them.
	onchip, traffic func() symbolic.Expr

	// idle is a binding no run holds. A run takes it, or builds its own
	// while a concurrent run holds it, and puts it back when done.
	idle atomic.Pointer[binding]
}

// Compile validates the graph and freezes it into its Program. After a
// successful Compile the graph is immutable: AddNode/NewStream record
// construction errors. Compiling again returns the same *Program.
func (g *Graph) Compile() (*Program, error) {
	return g.compileNamed("")
}

func (g *Graph) compileNamed(name string) (*Program, error) {
	if err := g.Finalize(); err != nil {
		return nil, fmt.Errorf("graph: compile: %w", err)
	}
	if g.prog == nil {
		g.prog = &Program{
			name:    name,
			src:     g,
			onchip:  sync.OnceValue(g.SymbolicOnchipBytes),
			traffic: sync.OnceValue(g.SymbolicOffchipTrafficBytes),
		}
		g.prog.idle.Store(newBinding(g))
	}
	return g.prog, nil
}

// CompileIR decodes a program from its serializable IR, once, and
// compiles it. Seeded random content re-derives per run (WithSeed).
func CompileIR(ir *ProgramIR) (*Program, error) {
	g, err := BuildIR(ir)
	if err != nil {
		return nil, err
	}
	return g.compileNamed(ir.Name)
}

// Name returns the program's name ("" when compiled from a Go graph
// without one).
func (p *Program) Name() string { return p.name }

// NodeCount returns the number of operator instances.
func (p *Program) NodeCount() int { return len(p.src.nodes) }

// StreamCount returns the number of streams.
func (p *Program) StreamCount() int { return len(p.src.streams) }

// OnchipBytesExpr is the program's symbolic on-chip requirement (§4.2).
func (p *Program) OnchipBytesExpr() symbolic.Expr { return p.onchip() }

// OffchipTrafficBytesExpr is the symbolic off-chip traffic (§4.2).
func (p *Program) OffchipTrafficBytesExpr() symbolic.Expr { return p.traffic() }

// AllocatedComputeBW sums the compute bandwidth allocated across
// operators (FLOPs/cycle).
func (p *Program) AllocatedComputeBW() int64 { return p.src.AllocatedComputeBW() }

// Dot renders the program in Graphviz DOT format.
func (p *Program) Dot(title string) string { return p.src.Dot(title) }

// IR returns the program's serializable IR, or an error naming the
// first node without a wire form. Every program built from the ops
// constructors and the ops function library encodes, the paper's
// workloads included; a custom Go closure in a Map, Accum or FlatMap
// has no wire form. The encoding happens on first call and is cached;
// it is safe to call concurrently with runs (it only reads immutable
// compile-time structure).
func (p *Program) IR() (*ProgramIR, error) {
	p.irOnce.Do(func() {
		p.ir, p.irErr = p.src.EncodeIR(p.name)
	})
	if p.ir == nil {
		return nil, p.irErr
	}
	return p.ir, nil
}

// CanonicalJSON returns the program's canonical IR bytes.
func (p *Program) CanonicalJSON() ([]byte, error) {
	ir, err := p.IR()
	if err != nil {
		return nil, err
	}
	return ir.CanonicalJSON()
}

// Hash returns the SHA-256 content address of the canonical IR.
func (p *Program) Hash() (string, error) {
	ir, err := p.IR()
	if err != nil {
		return "", err
	}
	return ir.Hash()
}

// RunOption configures one execution of a compiled program.
type RunOption func(*runSettings)

type runSettings struct {
	cfg    Config
	params symbolic.Env
}

// WithSeed sets the run seed: IR programs with seeded random content
// instantiate independently per seed, and the seed is recorded in the
// session.
func WithSeed(seed uint64) RunOption {
	return func(rs *runSettings) { rs.cfg.Seed = seed }
}

// WithSimWorkers selects the DES engine: 0 or 1 the sequential
// reference engine, >= 2 the conservative parallel engine. Both produce
// identical results.
func WithSimWorkers(n int) RunOption {
	return func(rs *runSettings) { rs.cfg.SimWorkers = n }
}

// WithHBM overrides the off-chip memory model configuration.
func WithHBM(cfg hbm.Config) RunOption {
	return func(rs *runSettings) { rs.cfg.HBM = cfg }
}

// WithOnchip overrides the on-chip scratchpad configuration.
func WithOnchip(cfg onchip.Config) RunOption {
	return func(rs *runSettings) { rs.cfg.Onchip = cfg }
}

// WithChannelDepth overrides the default FIFO depth for streams.
func WithChannelDepth(n int) RunOption {
	return func(rs *runSettings) { rs.cfg.ChannelDepth = n }
}

// WithChannelLatency overrides the default FIFO latency in cycles. It
// must be at least 1 (Run refuses 0): a cycle of latency is what lets
// Select and Serialized decide identically on every DES engine.
func WithChannelLatency(t des.Time) RunOption {
	return func(rs *runSettings) { rs.cfg.ChannelLatency = t }
}

// WithParams binds symbolic parameters for metric evaluation: the
// session evaluates the program's §4.2 equations under these bindings.
func WithParams(env symbolic.Env) RunOption {
	return func(rs *runSettings) {
		if rs.params == nil {
			rs.params = symbolic.Env{}
		}
		for k, v := range env {
			rs.params[k] = v
		}
	}
}

// Session is the outcome of one Program run: the simulation result, the
// effective configuration, the operators' recordings (captured streams,
// stored tiles), and the symbolic-parameter bindings for metric
// evaluation.
type Session struct {
	// Result summarizes the simulated run.
	Result Result
	// Config records the run's effective settings: DefaultConfig with
	// the options applied.
	Config Config

	program *Program
	records []any
	params  symbolic.Env
}

// Run executes the compiled program with fresh engine state and returns
// the run's session. Options apply on top of DefaultConfig (seed 0).
// Runs are independent: repeated and concurrent Runs of one Program are
// legal and fully parallel.
func (p *Program) Run(opts ...RunOption) (*Session, error) {
	rs := runSettings{cfg: DefaultConfig()}
	for _, o := range opts {
		o(&rs)
	}
	if rs.cfg.ChannelLatency < 1 {
		return nil, fmt.Errorf("graph: channel latency %d: must be >= 1 for Select and Serialized to decide identically on every engine", rs.cfg.ChannelLatency)
	}
	b := p.idle.Swap(nil)
	if b == nil {
		b = newBinding(p.src)
	}
	res, records, err := p.src.run(rs.cfg, b)
	p.idle.Store(b)
	if err != nil {
		return nil, err
	}
	return &Session{Result: res, Config: rs.cfg, program: p, records: records, params: rs.params}, nil
}

// Recorded returns what node n's operator recorded during this run
// (Ctx.Record), or nil.
func (s *Session) Recorded(n *Node) any {
	if n.ID >= len(s.records) || s.program.src.nodes[n.ID] != n {
		return nil
	}
	return s.records[n.ID]
}

// Captured returns the elements recorded by the capture operator with
// the given name during this run (including the trailing Done).
func (s *Session) Captured(name string) ([]element.Element, bool) {
	for i, r := range s.records {
		if es, ok := r.([]element.Element); ok && s.program.src.nodes[i].Op.Name() == name {
			return es, true
		}
	}
	return nil, false
}

// CaptureNames lists the program's capture operators, sorted.
func (s *Session) CaptureNames() []string {
	var out []string
	for i, r := range s.records {
		if _, ok := r.([]element.Element); ok {
			out = append(out, s.program.src.nodes[i].Op.Name())
		}
	}
	sort.Strings(out)
	return out
}

// Program returns the compiled program this session ran.
func (s *Session) Program() *Program { return s.program }

// OnchipRequirement evaluates the program's symbolic on-chip equation
// under the session's WithParams bindings.
func (s *Session) OnchipRequirement() (int64, error) {
	return s.program.onchip().Eval(s.params)
}

// OffchipTrafficEq evaluates the symbolic off-chip traffic equation
// under the session's WithParams bindings.
func (s *Session) OffchipTrafficEq() (int64, error) {
	return s.program.traffic().Eval(s.params)
}
