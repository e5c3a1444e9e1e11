package graph

import (
	"errors"
	"fmt"
	"sync/atomic"

	"step/internal/des"
	"step/internal/element"
	"step/internal/shape"
	"step/internal/symbolic"
)

// Stream is a handle to a dataflow edge. Every stream has exactly one
// producer and at most one consumer (use a Broadcast operator to fan out).
type Stream struct {
	id    int
	g     *Graph
	Shape shape.Shape
	DType DType
	prod  *Node
	cons  *Node
	// depth overrides the graph's default channel capacity when > 0.
	depth int
	// shapeOverridden / dtypeOverridden record programmer overrides so
	// the program IR can replay them on load.
	shapeOverridden bool
	dtypeOverridden bool
}

// ID returns the stream's graph-unique id (its index in creation order),
// the identifier the program IR uses to wire nodes together.
func (s *Stream) ID() int { return s.id }

// Producer returns the node producing this stream (nil when detached).
func (s *Stream) Producer() *Node { return s.prod }

// SetDepth overrides the FIFO depth of this stream's channel.
func (s *Stream) SetDepth(n int) *Stream {
	if n < 1 {
		panic("graph: stream depth must be >= 1")
	}
	s.depth = n
	return s
}

// PaperRank returns the stream's rank in the paper's convention: a rank-N
// stream has shape [D_N, …, D_0], i.e. N+1 dimensions.
func (s *Stream) PaperRank() int { return s.Shape.Rank() - 1 }

// OverrideDType replaces the inferred data type with one the programmer
// knows to be tighter (e.g. binding a time-multiplexed region's tile rows
// to the largest tile it will see).
func (s *Stream) OverrideDType(dt DType) *Stream {
	s.DType = dt
	s.dtypeOverridden = true
	return s
}

// OverrideShape replaces the inferred shape with one the programmer knows
// to be tighter — the frontend feature of Listing 1 line 26, where the
// fresh dynamic dimension introduced by Reassemble is substituted with the
// original input's shape. The rank must be preserved.
func (s *Stream) OverrideShape(sh shape.Shape) *Stream {
	if sh.Rank() != s.Shape.Rank() {
		s.g.Errf("override shape %s changes rank of %s", sh, s.Shape)
		return s
	}
	s.Shape = sh
	s.shapeOverridden = true
	return s
}

func (s *Stream) String() string {
	return fmt.Sprintf("stream#%d %s %s", s.id, s.Shape, s.DType)
}

// Node is an operator instance in the graph.
type Node struct {
	ID      int
	Op      Operator
	Inputs  []*Stream
	Outputs []*Stream
	// irOp/irAttrs describe the node in the serializable program IR.
	// Constructors in the ops package set them via SetIR; nodes without
	// an IR description make the containing program inexpressible as IR
	// (Program.IR reports which node and why).
	irOp    string
	irAttrs any
}

// SetIR records the node's program-IR description: the operator kind and
// a JSON-marshalable attribute struct holding the constructor arguments.
// Constructors that wrap other constructors (e.g. CountSource over
// Source) may call it again to replace the inner description.
func (n *Node) SetIR(op string, attrs any) {
	n.irOp, n.irAttrs = op, attrs
}

// Operator is the behaviour of a node. Implementations live in the ops
// package.
type Operator interface {
	// Name identifies the operator instance in diagnostics.
	Name() string
	// Run executes the operator as a dataflow block. It must drain its
	// inputs and close its outputs.
	Run(ctx *Ctx) error
	// OnchipBytes is the operator's symbolic on-chip memory requirement
	// (§4.2). Zero for fully streaming operators.
	OnchipBytes() symbolic.Expr
	// OffchipTrafficBytes is the operator's symbolic off-chip traffic
	// (§4.2). Zero for all but off-chip memory operators.
	OffchipTrafficBytes() symbolic.Expr
	// AllocatedComputeBW is the compute bandwidth (FLOPs/cycle) the
	// programmer allocated to this operator; zero for non-compute ops.
	AllocatedComputeBW() int64
}

// Graph is a STeP program under construction.
type Graph struct {
	nodes   []*Node
	streams []*Stream
	errs    []error
	// prog is the graph's one Program, set by the first successful
	// Compile; from then on the graph is frozen and further structural
	// mutation is a recorded construction error.
	prog *Program
}

// New creates an empty graph.
func New() *Graph { return &Graph{} }

// Errf records a construction error with context; building continues so
// callers can chain constructors, and Finalize reports everything at once.
func (g *Graph) Errf(format string, args ...any) {
	g.errs = append(g.errs, fmt.Errorf(format, args...))
}

// NewStream registers a fresh stream produced by node n.
func (g *Graph) NewStream(prod *Node, sh shape.Shape, dt DType) *Stream {
	g.checkMutable("NewStream")
	s := &Stream{id: len(g.streams), g: g, Shape: sh, DType: dt, prod: prod}
	g.streams = append(g.streams, s)
	if prod != nil {
		prod.Outputs = append(prod.Outputs, s)
	}
	return s
}

// AddNode registers an operator consuming the given input streams. Output
// streams are created by the caller via NewStream after the node exists.
func (g *Graph) AddNode(op Operator, inputs ...*Stream) *Node {
	g.checkMutable("AddNode")
	n := &Node{ID: len(g.nodes), Op: op}
	for _, in := range inputs {
		if in == nil {
			g.Errf("%s: nil input stream", op.Name())
			continue
		}
		if in.g != g {
			g.Errf("%s: input stream from a different graph", op.Name())
			continue
		}
		if in.cons != nil {
			g.Errf("%s: stream #%d already consumed by %s (insert a Broadcast)",
				op.Name(), in.id, in.cons.Op.Name())
			continue
		}
		in.cons = n
		n.Inputs = append(n.Inputs, in)
	}
	g.nodes = append(g.nodes, n)
	return n
}

// AttachInput connects an input stream to an already-created node. It
// exists to close feedback cycles (e.g. the dynamic-parallelization
// selector loop of Fig. 16), where a node must be constructed before the
// stream that feeds it.
func (g *Graph) AttachInput(n *Node, s *Stream) {
	g.checkMutable("AttachInput")
	if s == nil {
		g.Errf("%s: nil attached stream", n.Op.Name())
		return
	}
	if s.g != g {
		g.Errf("%s: attached stream from a different graph", n.Op.Name())
		return
	}
	if s.cons != nil {
		g.Errf("%s: stream #%d already consumed by %s", n.Op.Name(), s.id, s.cons.Op.Name())
		return
	}
	s.cons = n
	n.Inputs = append(n.Inputs, s)
}

// checkMutable records a construction error when the graph was already
// compiled into an immutable Program.
func (g *Graph) checkMutable(op string) {
	if g.prog != nil {
		g.Errf("graph: %s after Compile (compiled programs are immutable; build a new graph)", op)
	}
}

// Nodes returns the graph's nodes in insertion order.
func (g *Graph) Nodes() []*Node { return g.nodes }

// Finalize validates the graph: accumulated construction errors, dangling
// streams (produced but never consumed), and missing producers.
func (g *Graph) Finalize() error {
	var errs []error
	errs = append(errs, g.errs...)
	for _, s := range g.streams {
		if s.prod == nil {
			errs = append(errs, fmt.Errorf("stream #%d has no producer", s.id))
		}
		if s.cons == nil {
			errs = append(errs, fmt.Errorf("stream #%d %s (from %s) is never consumed (attach a Sink)",
				s.id, s.Shape, producerName(s)))
		}
	}
	return errors.Join(errs...)
}

func producerName(s *Stream) string {
	if s.prod == nil {
		return "?"
	}
	return s.prod.Op.Name()
}

// SymbolicOnchipBytes sums every operator's on-chip requirement equation.
func (g *Graph) SymbolicOnchipBytes() symbolic.Expr {
	terms := make([]symbolic.Expr, 0, len(g.nodes))
	for _, n := range g.nodes {
		terms = append(terms, n.Op.OnchipBytes())
	}
	return symbolic.Add(terms...)
}

// SymbolicOffchipTrafficBytes sums every operator's traffic equation.
func (g *Graph) SymbolicOffchipTrafficBytes() symbolic.Expr {
	terms := make([]symbolic.Expr, 0, len(g.nodes))
	for _, n := range g.nodes {
		terms = append(terms, n.Op.OffchipTrafficBytes())
	}
	return symbolic.Add(terms...)
}

// AllocatedComputeBW sums the compute bandwidth allocated across operators.
func (g *Graph) AllocatedComputeBW() int64 {
	var sum int64
	for _, n := range g.nodes {
		sum += n.Op.AllocatedComputeBW()
	}
	return sum
}

// Chan is the executed form of a stream.
type Chan = des.Chan[element.Element]

// Counters collects runtime statistics shared by all operators of a run.
// Mutate through the Add methods — operators run concurrently under the
// parallel DES engine; the sums are order-free and therefore identical on
// both engines. Read the fields only after the run completes.
type Counters struct {
	FLOPs       int64
	DataElems   int64
	StopTokens  int64
	PaddedElems int64
}

// AddFLOPs records compute work.
func (c *Counters) AddFLOPs(n int64) { atomic.AddInt64(&c.FLOPs, n) }

// AddDataElem counts one data element moved.
func (c *Counters) AddDataElem() { atomic.AddInt64(&c.DataElems, 1) }

// AddDataElems counts n data elements moved at once; bulk dequeue loops
// use it so the hot path pays one atomic per batch instead of one per
// element (the final sums are identical either way).
func (c *Counters) AddDataElems(n int64) { atomic.AddInt64(&c.DataElems, n) }

// AddStopToken counts one stop token moved.
func (c *Counters) AddStopToken() { atomic.AddInt64(&c.StopTokens, 1) }

// AddStopTokens counts n stop tokens moved at once.
func (c *Counters) AddStopTokens(n int64) { atomic.AddInt64(&c.StopTokens, n) }

// AddPaddedElem counts one padding element introduced.
func (c *Counters) AddPaddedElem() { atomic.AddInt64(&c.PaddedElems, 1) }

// Ctx is the execution context handed to Operator.Run. Operators are
// immutable configuration shared by every run: whatever a run needs to
// keep lives in Run's locals or is published with Record.
type Ctx struct {
	P        *des.Process
	In       []*Chan
	Out      []*Chan
	Machine  *Machine
	Counters *Counters
	// Seed is the run seed (Config.Seed).
	Seed uint64

	record any
}

// Record publishes the operator's output for this run; the run's
// Session returns it (Session.Recorded). A recorded []element.Element
// is a captured stream (Session.Captured).
func (c *Ctx) Record(v any) { c.record = v }

// CloseOutputs terminates every output stream: it sends the Done token and
// closes the channel. Operators defer it so streams are always terminated.
func (c *Ctx) CloseOutputs() {
	for _, o := range c.Out {
		o.Send(c.P, element.DoneElem)
		o.Close(c.P)
	}
}
