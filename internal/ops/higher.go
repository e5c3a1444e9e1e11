package ops

import (
	"fmt"

	"step/internal/des"
	"step/internal/element"
	"step/internal/graph"
	"step/internal/shape"
	"step/internal/symbolic"
)

// MapFn is an element-wise function applied by Map. Apply returns the
// output value and the FLOPs performed.
type MapFn struct {
	Name  string
	Apply func(v element.Value) (element.Value, int64, error)
	// OutType maps the input data type to the output data type.
	OutType func(in graph.DType) graph.DType
	// IR names the function in the serializable program IR. Library
	// constructors set it and Name from one registry entry; custom
	// closures leave it zero, which makes the containing program
	// inexpressible.
	IR FnRef
}

// AccumFn is a reduction function for Accum/Scan. Update folds a value
// into the state and returns the new state plus FLOPs performed.
type AccumFn struct {
	Name   string
	Init   func() element.Value
	Update func(state, v element.Value) (element.Value, int64, error)
	// OutType maps the input data type to the accumulator/output type.
	OutType func(in graph.DType) graph.DType
	// IR names the function in the serializable program IR (see MapFn.IR).
	IR FnRef
}

// FlatMapFn expands one value into a rank-b stream fragment: a sequence of
// data elements and stop tokens of level <= b, without a trailing
// subsuming stop (the operator manages separators).
type FlatMapFn struct {
	Name  string
	Apply func(v element.Value) ([]element.Element, int64, error)
	// OutType maps the input data type to the output data type.
	OutType func(in graph.DType) graph.DType
	// IR names the function in the serializable program IR (see MapFn.IR).
	IR FnRef
}

// ComputeOpts configures the Roofline performance model of a higher-order
// operator (§4.3): per input element the operator advances
// max(in/memBW, flops/computeBW, out/memBW) cycles, where the memory terms
// apply only when that side is connected to an on-chip memory unit rather
// than a FIFO.
type ComputeOpts struct {
	// ComputeBW is the allocated compute bandwidth in FLOPs/cycle.
	// Zero means the op performs no arithmetic (pure data movement).
	ComputeBW int64
	// MemIn/MemOut mark whether inputs/outputs go through on-chip memory.
	MemIn, MemOut bool
	// MatMulOnchip marks the §4.2 matmul on-chip equation:
	// 16*in_tile_col + |weight tile| + |output tile| (in bytes).
	MatMulOnchip bool
	// InTileCols/WeightTileBytes/OutTileBytes parameterize MatMulOnchip.
	InTileCols      symbolic.Expr
	WeightTileBytes symbolic.Expr
	OutTileBytes    symbolic.Expr
	IncludeOutInEq  bool // Accum includes the output tile, Map does not
}

func (c ComputeOpts) onchipExpr(outBytes symbolic.Expr) symbolic.Expr {
	if !c.MatMulOnchip {
		return symbolic.Zero
	}
	terms := []symbolic.Expr{
		symbolic.Mul(symbolic.Const(16), c.InTileCols, symbolic.Const(2)),
		c.WeightTileBytes,
	}
	if c.IncludeOutInEq {
		terms = append(terms, c.OutTileBytes)
	}
	return symbolic.Add(terms...)
}

// rooflineCycles computes the per-element cycle increment.
func rooflineCycles(ctx *graph.Ctx, opts ComputeOpts, inBytes, outBytes, flops int64) des.Time {
	var cyc int64 = 1
	memBW := ctx.Machine.Spad.Config().BandwidthBytesPerCycle
	if opts.MemIn && inBytes > 0 {
		if c := (inBytes + memBW - 1) / memBW; c > cyc {
			cyc = c
		}
	}
	if opts.MemOut && outBytes > 0 {
		if c := (outBytes + memBW - 1) / memBW; c > cyc {
			cyc = c
		}
	}
	if opts.ComputeBW > 0 && flops > 0 {
		if c := (flops + opts.ComputeBW - 1) / opts.ComputeBW; c > cyc {
			cyc = c
		}
	}
	return des.Time(cyc)
}

// mapOp applies an element-wise function (§3.2.4).
type mapOp struct {
	base
	fn   MapFn
	opts ComputeOpts
}

// Map applies fn to every data element; stop tokens pass through and the
// stream shape is unchanged.
func Map(g *graph.Graph, name string, in *graph.Stream, fn MapFn, opts ComputeOpts) *graph.Stream {
	op := &mapOp{base: newBase(name), fn: fn, opts: opts}
	op.computeBW = opts.ComputeBW
	outType := in.DType
	if fn.OutType != nil {
		outType = fn.OutType(in.DType)
	}
	n := g.AddNode(op, in)
	if fn.IR.Name != "" {
		mapKind.set(n, mapAttrs{Fn: fn.IR, Opts: optsToIR(opts)})
	}
	out := g.NewStream(n, in.Shape.Clone(), outType)
	op.onchip = opts.onchipExpr(outType.Bytes())
	return out
}

// Map2 zips two streams and applies a binary function — the common
// Map((a, b), fn) pattern of Listing 1.
//
//lint:allow registrycomplete composite convenience over Zip+Map; its IR spelling is the zip and map nodes it expands to
func Map2(g *graph.Graph, name string, a, b *graph.Stream, fn MapFn, opts ComputeOpts) *graph.Stream {
	z := Zip(g, name+".zip", a, b)
	return Map(g, name, z, fn, opts)
}

func (o *mapOp) Run(ctx *graph.Ctx) error {
	defer ctx.CloseOutputs()
	for {
		e, ok := recvTracked(ctx, 0)
		if !ok {
			return fmt.Errorf("%s: input closed without Done", o.name)
		}
		if e.Kind == element.Done {
			return nil
		}
		if e.Kind == element.Stop {
			tick(ctx)
			ctx.Out[0].Send(ctx.P, e)
			continue
		}
		out, flops, err := o.fn.Apply(e.Value)
		if err != nil {
			return fmt.Errorf("%s: %w", o.name, err)
		}
		ctx.Counters.AddFLOPs(flops)
		ctx.P.Advance(rooflineCycles(ctx, o.opts, e.Value.Bytes(), out.Bytes(), flops))
		ctx.Out[0].Send(ctx.P, element.DataOf(out))
	}
}

// accumOp reduces the inner b dims of the stream (§3.2.4).
type accumOp struct {
	base
	b    int
	fn   AccumFn
	opts ComputeOpts
	emit bool // Scan emits state per element instead of per group
}

// Accum reduces over the inner b dimensions: each rank-b subtree folds
// into one accumulator value emitted at the subtree boundary. The
// accumulator may be dynamically sized (e.g. RetileRow of a dynamic number
// of tiles).
func Accum(g *graph.Graph, name string, in *graph.Stream, b int, fn AccumFn, opts ComputeOpts) *graph.Stream {
	if b < 1 || b >= in.Shape.Rank() {
		g.Errf("%s: accum rank %d out of range for shape %s", name, b, in.Shape)
		b = 1
	}
	op := &accumOp{base: newBase(name), b: b, fn: fn, opts: opts}
	op.computeBW = opts.ComputeBW
	outType := in.DType
	if fn.OutType != nil {
		outType = fn.OutType(in.DType)
	}
	outShape, err := in.Shape.Drop(b)
	if err != nil {
		g.Errf("%s: %v", name, err)
		outShape = in.Shape
	}
	n := g.AddNode(op, in)
	if fn.IR.Name != "" {
		accumKind.set(n, accumAttrs{B: b, Fn: fn.IR, Opts: optsToIR(opts)})
	}
	out := g.NewStream(n, outShape, outType)
	// §4.2: Accum holds |output dtype|; with matmul, the full equation.
	if opts.MatMulOnchip {
		op.onchip = opts.onchipExpr(outType.Bytes())
	} else {
		op.onchip = outType.Bytes()
	}
	return out
}

// Scan is Accum that emits the running state on every input element; the
// output shape equals the input shape.
func Scan(g *graph.Graph, name string, in *graph.Stream, b int, fn AccumFn, opts ComputeOpts) *graph.Stream {
	if b < 1 || b >= in.Shape.Rank() {
		g.Errf("%s: scan rank %d out of range for shape %s", name, b, in.Shape)
		b = 1
	}
	op := &accumOp{base: newBase(name), b: b, fn: fn, opts: opts, emit: true}
	op.computeBW = opts.ComputeBW
	outType := in.DType
	if fn.OutType != nil {
		outType = fn.OutType(in.DType)
	}
	n := g.AddNode(op, in)
	if fn.IR.Name != "" {
		scanKind.set(n, accumAttrs{B: b, Fn: fn.IR, Opts: optsToIR(opts)})
	}
	out := g.NewStream(n, in.Shape.Clone(), outType)
	op.onchip = outType.Bytes()
	return out
}

func (o *accumOp) Run(ctx *graph.Ctx) error {
	defer ctx.CloseOutputs()
	var state element.Value
	started := false
	// flush closes the open group. closerLevel < 0 means the stream ended
	// (Done) without an explicit closing stop.
	flush := func(closerLevel int) {
		if started {
			tick(ctx)
			if !o.emit {
				ctx.Out[0].Send(ctx.P, element.DataOf(state))
			}
			state, started = nil, false
		}
		if closerLevel < 0 {
			return
		}
		if o.emit {
			// Scan preserves the stream shape: stops pass unchanged.
			tick(ctx)
			ctx.Out[0].Send(ctx.P, element.StopOf(closerLevel))
		} else if closerLevel > o.b {
			tick(ctx)
			ctx.Out[0].Send(ctx.P, element.StopOf(closerLevel-o.b))
		}
	}
	for {
		e, ok := recvTracked(ctx, 0)
		if !ok {
			return fmt.Errorf("%s: input closed without Done", o.name)
		}
		switch e.Kind {
		case element.Done:
			flush(-1) // close any open group without an extra stop
			return nil
		case element.Stop:
			if e.Level >= o.b {
				flush(e.Level)
			} else if o.emit {
				tick(ctx)
				ctx.Out[0].Send(ctx.P, e)
			}
			// Stops below the accumulation rank are absorbed (Accum) or
			// passed (Scan, handled above).
		default:
			if !started {
				state = o.fn.Init()
				started = true
			}
			next, flops, err := o.fn.Update(state, e.Value)
			if err != nil {
				return fmt.Errorf("%s: %w", o.name, err)
			}
			ctx.Counters.AddFLOPs(flops)
			ctx.P.Advance(rooflineCycles(ctx, o.opts, e.Value.Bytes(), next.Bytes(), flops))
			state = next
			if o.emit {
				ctx.Out[0].Send(ctx.P, element.DataOf(state))
			}
		}
	}
}

// flatMapOp expands each element into a rank-b fragment (§3.2.4).
type flatMapOp struct {
	base
	b  int
	fn FlatMapFn
}

// FlatMap expands each data element into a rank-b stream fragment;
// fragments of consecutive elements are concatenated. innerDims describes
// the b+1 dimensions that replace the innermost input dimension in the
// output shape.
func FlatMap(g *graph.Graph, name string, in *graph.Stream, b int, fn FlatMapFn, innerDims []shape.Dim) *graph.Stream {
	if len(innerDims) != b+1 {
		g.Errf("%s: flatmap rank %d needs %d inner dims, got %d", name, b, b+1, len(innerDims))
	}
	op := &flatMapOp{base: newBase(name), b: b, fn: fn}
	outType := in.DType
	if fn.OutType != nil {
		outType = fn.OutType(in.DType)
	}
	n := g.AddNode(op, in)
	if fn.IR.Name != "" {
		dimIRs := make([]graph.DimIR, len(innerDims))
		for i, d := range innerDims {
			dimIRs[i] = graph.DimToIR(d)
		}
		flatMapKind.set(n, flatMapAttrs{B: b, Fn: fn.IR, InnerDims: dimIRs})
	}
	dims := make([]shape.Dim, 0, in.Shape.Rank()+b)
	dims = append(dims, in.Shape.Dims[:in.Shape.Rank()-1]...)
	dims = append(dims, innerDims...)
	return g.NewStream(n, shape.New(dims...), outType)
}

func (o *flatMapOp) Run(ctx *graph.Ctx) error {
	defer ctx.CloseOutputs()
	for {
		e, ok := recvTracked(ctx, 0)
		if !ok {
			return fmt.Errorf("%s: input closed without Done", o.name)
		}
		switch e.Kind {
		case element.Done:
			return nil
		case element.Stop:
			tick(ctx)
			ctx.Out[0].Send(ctx.P, element.StopOf(e.Level+o.b))
		default:
			frag, flops, err := o.fn.Apply(e.Value)
			if err != nil {
				return fmt.Errorf("%s: %w", o.name, err)
			}
			ctx.Counters.AddFLOPs(flops)
			for _, fe := range frag {
				if fe.Kind == element.Stop && fe.Level > o.b {
					return fmt.Errorf("%s: fragment stop S%d exceeds flatmap rank %d", o.name, fe.Level, o.b)
				}
				tick(ctx)
				ctx.Out[0].Send(ctx.P, fe)
			}
		}
	}
}
