package graph

import (
	"fmt"
	"sort"
	"sync"

	"step/internal/des"
	"step/internal/element"
	"step/internal/hbm"
	"step/internal/onchip"
	"step/internal/symbolic"
)

// Program is an immutable, validated STeP program: the artifact
// Graph.Compile produces, and the only way to run one. Compilation runs
// the builder's shape verification (Finalize) and freezes the graph
// against further structural mutation; the symbolic §4.2 metric
// equations derive on demand. A Program can be run many times; each Run
// instantiates fresh engine state (channels, machine model, counters),
// so results are independent of previous runs.
//
// Programs loaded from the serializable IR (CompileIR) additionally
// re-instantiate every operator per run, which makes concurrent Runs of
// one Program fully parallel. A Go-built graph has exactly one Program,
// whose runs share the graph's operator instances (custom functions,
// capture handles) and are therefore serialized — still legal from any
// number of goroutines, just one simulation at a time. An operator
// function must not run its own Program: the nested Run would wait for
// the one it is part of.
type Program struct {
	name   string
	src    *Graph
	fromIR bool

	// The IR encodes lazily: workload builders compile thousands of
	// programs per sweep and never ask for the wire form, so paying the
	// serialization on Compile would tax every sweep point.
	irOnce sync.Once
	ir     *ProgramIR
	irErr  error

	// The §4.2 metric equations also derive lazily (same rationale), and
	// each on its own: a sweep point usually evaluates only one of them.
	onchip, traffic func() symbolic.Expr

	// mu serializes a Go-built graph's runs (see type comment).
	mu sync.Mutex
}

// Compile validates the graph and freezes it into its Program. After a
// successful Compile the graph is immutable: AddNode/NewStream record
// construction errors. Compiling again returns the same *Program, so
// every run of the graph's shared operators goes through one lock.
func (g *Graph) Compile() (*Program, error) {
	return g.compileNamed("")
}

func (g *Graph) compileNamed(name string) (*Program, error) {
	if err := g.Finalize(); err != nil {
		return nil, fmt.Errorf("graph: compile: %w", err)
	}
	if g.prog != nil {
		return g.prog, nil
	}
	// Captured streams are addressed by operator name per run
	// (Session.Captured); duplicates would silently shadow one another.
	seen := map[string]bool{}
	for _, n := range g.nodes {
		if _, ok := n.Op.(capturer); !ok {
			continue
		}
		if seen[n.Op.Name()] {
			return nil, fmt.Errorf("graph: compile: duplicate capture name %q", n.Op.Name())
		}
		seen[n.Op.Name()] = true
	}
	g.bound = newBinding(g)
	g.prog = &Program{
		name:    name,
		src:     g,
		onchip:  sync.OnceValue(g.SymbolicOnchipBytes),
		traffic: sync.OnceValue(g.SymbolicOffchipTrafficBytes),
	}
	return g.prog, nil
}

// CompileIR builds and compiles a program from its serializable IR.
// The resulting Program re-instantiates a fresh graph per Run (seeded
// by WithSeed), so repeated and concurrent runs are fully independent.
func CompileIR(ir *ProgramIR) (*Program, error) {
	g, err := BuildIR(ir, 0)
	if err != nil {
		return nil, err
	}
	p, err := g.compileNamed(ir.Name)
	if err != nil {
		return nil, err
	}
	// Re-encode eagerly: Run re-instantiates from the encoded form, and
	// registry-decoded graphs always serialize (raw attrs re-bound).
	if _, err := p.IR(); err != nil {
		return nil, fmt.Errorf("graph: compile ir: %w", err)
	}
	p.fromIR = true
	return p, nil
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
// first node without a wire form (custom Go functions do not
// serialize). The encoding happens on first call and is cached; it is
// safe to call concurrently with runs (it only reads immutable
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

// WithChannelLatency overrides the default FIFO latency in cycles.
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
// effective configuration, captured streams, and the symbolic-parameter
// bindings for metric evaluation.
type Session struct {
	// Result summarizes the simulated run.
	Result Result
	// Config records the run's effective settings: DefaultConfig with
	// the options applied.
	Config Config

	program  *Program
	captures map[string][]element.Element
	params   symbolic.Env
}

// Run executes the compiled program with fresh engine state and returns
// the run's session. Options apply on top of DefaultConfig (seed 0).
// Repeated and concurrent Runs of one Program are legal: IR-backed
// programs instantiate a fresh operator graph per run and run fully in
// parallel; a Go-built program's runs share operator instances and
// serialize on the Program. The capture snapshot is taken before the
// next run can reset the captures.
func (p *Program) Run(opts ...RunOption) (*Session, error) {
	rs := runSettings{cfg: DefaultConfig()}
	for _, o := range opts {
		o(&rs)
	}
	g := p.src
	if p.fromIR {
		var err error
		if g, err = BuildIR(p.ir, rs.cfg.Seed); err != nil {
			return nil, fmt.Errorf("graph: instantiate program: %w", err)
		}
	} else {
		p.mu.Lock()
		defer p.mu.Unlock()
	}
	res, err := g.run(rs.cfg)
	if err != nil {
		return nil, err
	}
	return &Session{Result: res, Config: rs.cfg, program: p, captures: collectCaptures(g), params: rs.params}, nil
}

// capturer is implemented by recording sinks (ops.CaptureOp).
type capturer interface{ Elements() []element.Element }

func collectCaptures(g *Graph) map[string][]element.Element {
	out := map[string][]element.Element{}
	for _, n := range g.nodes {
		if c, ok := n.Op.(capturer); ok {
			es := c.Elements()
			cp := make([]element.Element, len(es))
			copy(cp, es)
			out[n.Op.Name()] = cp
		}
	}
	return out
}

// Captured returns the elements recorded by the capture operator with
// the given name during this run (including the trailing Done).
func (s *Session) Captured(name string) ([]element.Element, bool) {
	es, ok := s.captures[name]
	return es, ok
}

// CaptureNames lists the program's capture operators, sorted.
func (s *Session) CaptureNames() []string {
	out := make([]string, 0, len(s.captures))
	for name := range s.captures {
		out = append(out, name)
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
