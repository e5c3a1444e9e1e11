package ops

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"

	"step/internal/element"
	"step/internal/graph"
	"step/internal/shape"
	"step/internal/tile"
)

// FnRef names a library function inside the program IR: its registered
// name and its typed argument. Arg is a Go value (a number, or an
// argument struct such as the KV-length table of kv-chunks) that
// marshals only when the program's IR is encoded; a zero Arg (the
// parameterless functions) is omitted. A decoded FnRef holds the raw
// JSON argument until the registry entry types and bounds it. The zero
// FnRef marks a custom closure, which has no IR form.
type FnRef struct {
	Name string `json:"name"`
	Arg  any    `json:"arg,omitempty"`
}

func (r FnRef) MarshalJSON() ([]byte, error) {
	// The encoder refuses what the loader would refuse.
	if e, ok := fnRegistry[r.Name]; ok {
		if err := e.check(r.Arg); err != nil {
			return nil, fmt.Errorf("fn %q arg: %w", r.Name, err)
		}
	}
	if r.Arg != nil && reflect.ValueOf(r.Arg).IsZero() {
		r.Arg = nil
	}
	type plain FnRef
	return json.Marshal(plain(r))
}

func (r *FnRef) UnmarshalJSON(b []byte) error {
	var in struct {
		Name string          `json:"name"`
		Arg  json.RawMessage `json:"arg"`
	}
	err := strictUnmarshal(b, &in)
	r.Name, r.Arg = in.Name, in.Arg
	return err
}

// strictUnmarshal decodes b into v, rejecting unknown object fields.
func strictUnmarshal(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// libFn is the function one family of higher-order operators carries.
type libFn interface{ MapFn | AccumFn | FlatMapFn }

// fnEntry is one registered library function: its family (MapFn,
// AccumFn or FlatMapFn), the bound on its argument, and the decoder
// that rebuilds it.
type fnEntry struct {
	family reflect.Type
	check  func(arg any) error
	decode func(raw json.RawMessage) (any, error)
}

// fnRegistry is the one function library: every MapFn, AccumFn and
// FlatMapFn the ops package exports resolves through it.
var fnRegistry = map[string]fnEntry{}

// registerFn adds the library function name to the registry and returns
// its constructor. The constructor stamps name onto what build returns
// and records the argument in its FnRef, so the function's Name, its IR
// reference and its decoder come from one key and cannot disagree.
// check (nil: no bound) rejects a hostile argument at load; build must
// accept any argument check passes.
func registerFn[A any, F libFn](name string, check func(A) error, build func(A) F) func(A) F {
	if _, dup := fnRegistry[name]; dup {
		panic(fmt.Sprintf("ops: duplicate library function %q", name))
	}
	if check == nil {
		check = func(A) error { return nil }
	}
	mk := func(a A) F {
		f := build(a)
		ref := FnRef{Name: name, Arg: a}
		switch p := any(&f).(type) {
		case *MapFn:
			p.Name, p.IR = name, ref
		case *AccumFn:
			p.Name, p.IR = name, ref
		case *FlatMapFn:
			p.Name, p.IR = name, ref
		}
		return f
	}
	fnRegistry[name] = fnEntry{
		family: reflect.TypeFor[F](),
		check: func(arg any) error {
			a, ok := arg.(A) // a decoded ref keeps its raw argument
			if !ok {
				return nil
			}
			return check(a)
		},
		decode: func(raw json.RawMessage) (any, error) {
			var a A
			if len(raw) > 0 {
				if err := strictUnmarshal(raw, &a); err != nil {
					return nil, err
				}
			}
			if err := check(a); err != nil {
				return nil, err
			}
			return mk(a), nil
		},
	}
	return mk
}

// lookupFn rebuilds the function ref names for IR node node, typing and
// bounding its argument; it must be of node's family F.
func lookupFn[F libFn](node string, ref FnRef) (F, error) {
	var zero F
	e, ok := fnRegistry[ref.Name]
	if !ok {
		return zero, fmt.Errorf("ir: node %q: unknown fn %q", node, ref.Name)
	}
	if want := reflect.TypeFor[F](); e.family != want {
		return zero, fmt.Errorf("ir: node %q: fn %q is a %s, not a %s", node, ref.Name, e.family.Name(), want.Name())
	}
	raw, _ := ref.Arg.(json.RawMessage)
	f, err := e.decode(raw)
	if err != nil {
		return zero, fmt.Errorf("ir: node %q: fn %q arg: %w", node, ref.Name, err)
	}
	return f.(F), nil
}

// computeOptsIR serializes ComputeOpts.
type computeOptsIR struct {
	ComputeBW       int64         `json:"compute_bw,omitempty"`
	MemIn           bool          `json:"mem_in,omitempty"`
	MemOut          bool          `json:"mem_out,omitempty"`
	MatMulOnchip    bool          `json:"matmul_onchip,omitempty"`
	InTileCols      *graph.ExprIR `json:"in_tile_cols,omitempty"`
	WeightTileBytes *graph.ExprIR `json:"weight_tile_bytes,omitempty"`
	OutTileBytes    *graph.ExprIR `json:"out_tile_bytes,omitempty"`
	IncludeOutInEq  bool          `json:"include_out,omitempty"`
}

func optsToIR(o ComputeOpts) computeOptsIR {
	return computeOptsIR{
		ComputeBW:       o.ComputeBW,
		MemIn:           o.MemIn,
		MemOut:          o.MemOut,
		MatMulOnchip:    o.MatMulOnchip,
		InTileCols:      graph.ExprToIR(o.InTileCols),
		WeightTileBytes: graph.ExprToIR(o.WeightTileBytes),
		OutTileBytes:    graph.ExprToIR(o.OutTileBytes),
		IncludeOutInEq:  o.IncludeOutInEq,
	}
}

func optsFromIR(ir computeOptsIR) (ComputeOpts, error) {
	inCols, err := graph.ExprFromIR(ir.InTileCols)
	if err != nil {
		return ComputeOpts{}, err
	}
	wBytes, err := graph.ExprFromIR(ir.WeightTileBytes)
	if err != nil {
		return ComputeOpts{}, err
	}
	oBytes, err := graph.ExprFromIR(ir.OutTileBytes)
	if err != nil {
		return ComputeOpts{}, err
	}
	return ComputeOpts{
		ComputeBW:       ir.ComputeBW,
		MemIn:           ir.MemIn,
		MemOut:          ir.MemOut,
		MatMulOnchip:    ir.MatMulOnchip,
		InTileCols:      inCols,
		WeightTileBytes: wBytes,
		OutTileBytes:    oBytes,
		IncludeOutInEq:  ir.IncludeOutInEq,
	}, nil
}

// --- the op table ---

// opKind is one operator kind of the program IR, made by registerOp:
// its name and its typed attrs A. A constructor records a node's IR
// only through set and the loader rebuilds a node only through the
// kind's decoder, so a kind's name, attrs and bounds are defined once.
type opKind[A any] struct{ name string }

// set records n's IR as this kind with attrs a.
func (k opKind[A]) set(n *graph.Node, a A) { n.SetIR(k.name, opAttrs[A]{a}) }

// opAttrs wraps a node's attrs so that encoding checks them first:
// Program.IR refuses what the loader would refuse, with its message.
type opAttrs[A any] struct{ a A }

func (w opAttrs[A]) MarshalJSON() ([]byte, error) {
	if err := checkAttrs(w.a); err != nil {
		return nil, err
	}
	return json.Marshal(w.a)
}

// checkAttrs runs the bounds of an attrs type that has a check method.
func checkAttrs(a any) error {
	if c, ok := a.(interface{ check() error }); ok {
		return c.check()
	}
	return nil
}

// Input arities besides an exact count.
const (
	someIn = -1 // one or more inputs
	feedIn = -2 // a relay's feedback input, which build resolves once every node exists
)

// registerOp adds the op kind name, with nIn inputs, to the IR's decode
// registry and returns it. Its decoder unmarshals the node's attrs
// strictly into A, runs their check, resolves the inputs, and calls
// build, which rebuilds the node through the kind's exported
// constructor and returns the node's outputs in order. The rebuilt node
// records the decoded attrs, so a loaded program re-encodes them as
// loaded (seeded and fill tiles keep their form).
func registerOp[A any](name string, nIn int, build func(dc *graph.DecodeCtx, a A, in []*graph.Stream) ([]*graph.Stream, error)) opKind[A] {
	k := opKind[A]{name}
	graph.RegisterIROp(name, func(dc *graph.DecodeCtx) error {
		var a A
		if err := dc.Attrs(&a); err != nil {
			return err
		}
		if err := checkAttrs(a); err != nil {
			return fmt.Errorf("ir: %s %q: %w", name, dc.Node.Name, err)
		}
		var in []*graph.Stream
		if nIn != feedIn {
			n := dc.NIn()
			if nIn == someIn && n == 0 {
				return fmt.Errorf("ir: %s %q needs an input", name, dc.Node.Name)
			}
			if nIn >= 0 && n != nIn {
				return fmt.Errorf("ir: %s %q has %d inputs, want %d", name, dc.Node.Name, n, nIn)
			}
			var err error
			if in, err = dc.Inputs(); err != nil {
				return err
			}
		}
		before := len(dc.G.Nodes())
		ss, err := build(dc, a, in)
		if err != nil {
			return err
		}
		if nodes := dc.G.Nodes(); len(nodes) == before+1 {
			k.set(nodes[before], a)
		}
		return dc.BindOutputs(ss...)
	})
	return k
}

// --- attrs: one type per kind, whose check holds its load bounds ---

// noAttrs is the attrs of a kind that has none; it encodes no attrs key.
type noAttrs struct{}

// sourceAttrs holds a source's constructor arguments, converted to wire
// form only when the IR is encoded, so building a graph costs nothing
// when its IR is never asked for (workload builders construct thousands
// of sources per sweep). A loaded source holds the wire form instead.
type sourceAttrs struct {
	sh    shape.Shape
	dt    graph.DType
	elems []element.Element
	ir    *sourceIR
}

// sourceIR is a source's wire form.
type sourceIR struct {
	Shape graph.ShapeIR     `json:"shape"`
	DType graph.DTypeIR     `json:"dtype"`
	Elems []graph.ElementIR `json:"elems"`
}

func (a sourceAttrs) MarshalJSON() ([]byte, error) {
	if a.ir != nil {
		return json.Marshal(a.ir)
	}
	elems, err := graph.ElemsToIR(a.elems)
	if err != nil {
		return nil, err
	}
	dt, err := graph.DTypeToIR(a.dt)
	if err != nil {
		return nil, err
	}
	return json.Marshal(sourceIR{Shape: *graph.ShapeToIR(a.sh), DType: *dt, Elems: elems})
}

func (a *sourceAttrs) UnmarshalJSON(b []byte) error {
	a.ir = new(sourceIR)
	return strictUnmarshal(b, a.ir)
}

// tensorAttr is an off-chip tensor: a Go-built one, serialized only
// when the IR is encoded, or the wire form a loaded node holds.
type tensorAttr struct {
	t  OffChipTensor
	ir *tensorIR
}

// tensorIR is an off-chip tensor's wire form.
type tensorIR struct {
	Tile     graph.TileIR `json:"tile"`
	TileRows int          `json:"tile_rows"`
	TileCols int          `json:"tile_cols"`
}

func (x tensorAttr) MarshalJSON() ([]byte, error) {
	if x.ir != nil {
		return json.Marshal(x.ir)
	}
	ti, err := graph.TileToIR(x.t.Data)
	if err != nil {
		return nil, err
	}
	return json.Marshal(tensorIR{Tile: *ti, TileRows: x.t.TileRows, TileCols: x.t.TileCols})
}

func (x *tensorAttr) UnmarshalJSON(b []byte) error {
	x.ir = new(tensorIR)
	return strictUnmarshal(b, x.ir)
}

// decode rebuilds a loaded tensor.
func (x tensorAttr) decode(env *graph.DecodeEnv) (OffChipTensor, error) {
	var ir tensorIR
	if x.ir != nil {
		ir = *x.ir
	}
	data, err := graph.TileFromIR(&ir.Tile, env)
	if err != nil {
		return OffChipTensor{}, err
	}
	return NewOffChipTensor(data, ir.TileRows, ir.TileCols)
}

// tilesAttr is a tile table: Go-built tiles, serialized only when the
// IR is encoded, or the wire form a loaded node holds.
type tilesAttr struct {
	ts []*tile.Tile
	ir []graph.TileIR
}

func (x tilesAttr) MarshalJSON() ([]byte, error) {
	if x.ir != nil {
		return json.Marshal(x.ir)
	}
	out := make([]graph.TileIR, len(x.ts))
	for i, t := range x.ts {
		ti, err := graph.TileToIR(t)
		if err != nil {
			return nil, err
		}
		out[i] = *ti
	}
	return json.Marshal(out)
}

func (x *tilesAttr) UnmarshalJSON(b []byte) error { return strictUnmarshal(b, &x.ir) }

// decode rebuilds a loaded table.
func (x tilesAttr) decode(env *graph.DecodeEnv) ([]*tile.Tile, error) {
	table := make([]*tile.Tile, len(x.ir))
	for i := range x.ir {
		t, err := graph.TileFromIR(&x.ir[i], env)
		if err != nil {
			return nil, fmt.Errorf("table[%d]: %w", i, err)
		}
		table[i] = t
	}
	return table, nil
}

type countSourceAttrs struct {
	N int `json:"n"`
}

// The count materializes N elements.
func (a countSourceAttrs) check() error { return inRange("n", 0, graph.MaxIRCount)(a.N) }

type broadcastAttrs struct {
	K int `json:"k"`
}

// K materializes K streams.
func (a broadcastAttrs) check() error { return inRange("k", 1, graph.MaxIRFanout)(a.K) }

type takeAttrs struct {
	N int `json:"n"`
}

func (a takeAttrs) check() error {
	if a.N < 0 {
		return fmt.Errorf("n %d < 0", a.N)
	}
	return nil
}

type relayAttrs struct {
	DType graph.DTypeIR `json:"dtype"`
	Shape graph.ShapeIR `json:"shape"`
}

type linearLoadAttrs struct {
	Tensor   tensorAttr `json:"tensor"`
	Stride   [2]int     `json:"stride"`
	OutShape [2]int     `json:"out_shape"`
}

type randomLoadAttrs struct {
	Table tilesAttr `json:"table"`
}

type bufferizeAttrs struct {
	B int `json:"b"`
}

type streamifyAttrs struct {
	Stride   *[2]int `json:"stride,omitempty"`
	OutShape *[2]int `json:"out_shape,omitempty"`
}

func (a streamifyAttrs) check() error {
	if s := a.OutShape; s != nil && (s[0] <= 0 || s[1] <= 0) {
		return fmt.Errorf("out_shape %v not positive", *s)
	}
	return nil
}

// Rank-like attributes are bounded by graph.MaxIRRank: stream ranks are
// tiny in practice, FlatMap, Partition and Reassemble size allocations
// by them, and their Errf diagnostics only fire after those allocations.

type partitionAttrs struct {
	R   int `json:"r"`
	Num int `json:"num"`
}

func (a partitionAttrs) check() error {
	if err := inRange("num", 1, graph.MaxIRFanout)(a.Num); err != nil {
		return err
	}
	return inRange("r", 0, graph.MaxIRRank)(a.R)
}

type reassembleAttrs struct {
	A int `json:"a"`
}

func (a reassembleAttrs) check() error { return inRange("a", 0, graph.MaxIRRank)(a.A) }

type mapAttrs struct {
	Fn   FnRef         `json:"fn"`
	Opts computeOptsIR `json:"opts"`
}

type accumAttrs struct {
	B    int           `json:"b"`
	Fn   FnRef         `json:"fn"`
	Opts computeOptsIR `json:"opts"`
}

type flatMapAttrs struct {
	B         int           `json:"b"`
	Fn        FnRef         `json:"fn"`
	InnerDims []graph.DimIR `json:"inner_dims"`
}

func (a flatMapAttrs) check() error { return inRange("b", 0, graph.MaxIRRank)(a.B) }

type flattenAttrs struct {
	Min int `json:"min"`
	Max int `json:"max"`
}

type reshapeAttrs struct {
	Rank  int            `json:"rank"`
	Chunk int            `json:"chunk"`
	Pad   *graph.ValueIR `json:"pad,omitempty"`
}

type expandAttrs struct {
	Rank int `json:"rank"`
}

type repeatAttrs struct {
	Count int `json:"count"`
}

// --- the kinds ---

// The op table. Each kind is registered in init, not in its
// declaration, because its build calls the constructor that sets it.
var (
	sourceKind          opKind[sourceAttrs]
	countSourceKind     opKind[countSourceAttrs]
	captureKind         opKind[noAttrs]
	sinkKind            opKind[noAttrs]
	broadcastKind       opKind[broadcastAttrs]
	takeKind            opKind[takeAttrs]
	relayKind           opKind[relayAttrs]
	linearLoadKind      opKind[linearLoadAttrs]
	linearStoreKind     opKind[noAttrs]
	randomLoadKind      opKind[randomLoadAttrs]
	randomStoreKind     opKind[noAttrs]
	bufferizeKind       opKind[bufferizeAttrs]
	streamifyKind       opKind[streamifyAttrs]
	streamifyLinearKind opKind[noAttrs]
	partitionKind       opKind[partitionAttrs]
	reassembleKind      opKind[reassembleAttrs]
	eagerMergeKind      opKind[noAttrs]
	mapKind             opKind[mapAttrs]
	accumKind, scanKind opKind[accumAttrs]
	flatMapKind         opKind[flatMapAttrs]
	flattenKind         opKind[flattenAttrs]
	reshapeKind         opKind[reshapeAttrs]
	promoteKind         opKind[noAttrs]
	expandKind          opKind[expandAttrs]
	zipKind             opKind[noAttrs]
	repeatKind          opKind[repeatAttrs]
)

// outs lists a build's output streams.
func outs(ss ...*graph.Stream) ([]*graph.Stream, error) { return ss, nil }

func init() {
	sourceKind = registerOp("source", 0, func(dc *graph.DecodeCtx, a sourceAttrs, _ []*graph.Stream) ([]*graph.Stream, error) {
		var w sourceIR
		if a.ir != nil {
			w = *a.ir
		}
		sh, err := graph.ShapeFromIR(&w.Shape)
		if err != nil {
			return nil, err
		}
		dt, err := graph.DTypeFromIR(&w.DType)
		if err != nil {
			return nil, err
		}
		elems, at, err := graph.Seeded(dc.Env, func(env *graph.DecodeEnv) ([]element.Element, error) {
			return graph.ElemsFromIR(w.Elems, env)
		})
		if err != nil {
			return nil, err
		}
		out := Source(dc.G, dc.Node.Name, sh, dt, elems)
		out.Producer().Op.(*sourceOp).elemsAt = at
		return outs(out)
	})
	countSourceKind = registerOp("count-source", 0, func(dc *graph.DecodeCtx, a countSourceAttrs, _ []*graph.Stream) ([]*graph.Stream, error) {
		return outs(CountSource(dc.G, dc.Node.Name, a.N))
	})
	captureKind = registerOp("capture", 1, func(dc *graph.DecodeCtx, _ noAttrs, in []*graph.Stream) ([]*graph.Stream, error) {
		Capture(dc.G, dc.Node.Name, in[0])
		return outs()
	})
	sinkKind = registerOp("sink", 1, func(dc *graph.DecodeCtx, _ noAttrs, in []*graph.Stream) ([]*graph.Stream, error) {
		Sink(dc.G, dc.Node.Name, in[0])
		return outs()
	})
	broadcastKind = registerOp("broadcast", 1, func(dc *graph.DecodeCtx, a broadcastAttrs, in []*graph.Stream) ([]*graph.Stream, error) {
		return outs(Broadcast(dc.G, dc.Node.Name, in[0], a.K)...)
	})
	takeKind = registerOp("take", 1, func(dc *graph.DecodeCtx, a takeAttrs, in []*graph.Stream) ([]*graph.Stream, error) {
		return outs(Take(dc.G, dc.Node.Name, in[0], a.N))
	})
	relayKind = registerOp("relay", feedIn, func(dc *graph.DecodeCtx, a relayAttrs, _ []*graph.Stream) ([]*graph.Stream, error) {
		dt, err := graph.DTypeFromIR(&a.DType)
		if err != nil {
			return nil, err
		}
		sh, err := graph.ShapeFromIR(&a.Shape)
		if err != nil {
			return nil, err
		}
		if dc.NIn() != 1 {
			return nil, fmt.Errorf("ir: relay %q needs exactly one (possibly forward) input, got %d", dc.Node.Name, dc.NIn())
		}
		h, out := Relay(dc.G, dc.Node.Name, dt, sh)
		dc.Defer(func() error {
			in, err := dc.In(0)
			if err != nil {
				return err
			}
			RelayFeed(dc.G, h, in)
			return nil
		})
		return outs(out)
	})
	linearLoadKind = registerOp("linear-offchip-load", 1, func(dc *graph.DecodeCtx, a linearLoadAttrs, in []*graph.Stream) ([]*graph.Stream, error) {
		tensor, at, err := graph.Seeded(dc.Env, a.Tensor.decode)
		if err != nil {
			return nil, fmt.Errorf("ir: node %q: %w", dc.Node.Name, err)
		}
		out := LinearOffChipLoad(dc.G, dc.Node.Name, in[0], tensor, a.Stride, a.OutShape)
		out.Producer().Op.(*linearLoadOp).tensorAt = at
		return outs(out)
	})
	linearStoreKind = registerOp("linear-offchip-store", 1, func(dc *graph.DecodeCtx, _ noAttrs, in []*graph.Stream) ([]*graph.Stream, error) {
		LinearOffChipStore(dc.G, dc.Node.Name, in[0])
		return outs()
	})
	randomLoadKind = registerOp("random-offchip-load", 1, func(dc *graph.DecodeCtx, a randomLoadAttrs, in []*graph.Stream) ([]*graph.Stream, error) {
		table, at, err := graph.Seeded(dc.Env, a.Table.decode)
		if err != nil {
			return nil, fmt.Errorf("ir: node %q %w", dc.Node.Name, err)
		}
		out := RandomOffChipLoad(dc.G, dc.Node.Name, in[0], table)
		out.Producer().Op.(*randomLoadOp).tableAt = at
		return outs(out)
	})
	randomStoreKind = registerOp("random-offchip-store", 2, func(dc *graph.DecodeCtx, _ noAttrs, in []*graph.Stream) ([]*graph.Stream, error) {
		ack, _ := RandomOffChipStore(dc.G, dc.Node.Name, in[0], in[1])
		return outs(ack)
	})
	bufferizeKind = registerOp("bufferize", 1, func(dc *graph.DecodeCtx, a bufferizeAttrs, in []*graph.Stream) ([]*graph.Stream, error) {
		return outs(Bufferize(dc.G, dc.Node.Name, in[0], a.B))
	})
	streamifyKind = registerOp("streamify", 2, func(dc *graph.DecodeCtx, a streamifyAttrs, in []*graph.Stream) ([]*graph.Stream, error) {
		return outs(Streamify(dc.G, dc.Node.Name, in[0], in[1], a.Stride, a.OutShape))
	})
	streamifyLinearKind = registerOp("streamify-linear", 1, func(dc *graph.DecodeCtx, _ noAttrs, in []*graph.Stream) ([]*graph.Stream, error) {
		return outs(StreamifyLinear(dc.G, dc.Node.Name, in[0]))
	})
	partitionKind = registerOp("partition", 2, func(dc *graph.DecodeCtx, a partitionAttrs, in []*graph.Stream) ([]*graph.Stream, error) {
		return outs(Partition(dc.G, dc.Node.Name, in[0], in[1], a.R, a.Num)...)
	})
	reassembleKind = registerOp("reassemble", someIn, func(dc *graph.DecodeCtx, a reassembleAttrs, in []*graph.Stream) ([]*graph.Stream, error) {
		if len(in) < 2 {
			return nil, fmt.Errorf("ir: reassemble %q needs at least one input plus a selector", dc.Node.Name)
		}
		return outs(Reassemble(dc.G, dc.Node.Name, in[:len(in)-1], in[len(in)-1], a.A))
	})
	eagerMergeKind = registerOp("eager-merge", someIn, func(dc *graph.DecodeCtx, _ noAttrs, in []*graph.Stream) ([]*graph.Stream, error) {
		return outs(EagerMerge(dc.G, dc.Node.Name, in))
	})
	mapKind = registerOp("map", 1, func(dc *graph.DecodeCtx, a mapAttrs, in []*graph.Stream) ([]*graph.Stream, error) {
		fn, err := lookupFn[MapFn](dc.Node.Name, a.Fn)
		if err != nil {
			return nil, err
		}
		opts, err := optsFromIR(a.Opts)
		if err != nil {
			return nil, err
		}
		return outs(Map(dc.G, dc.Node.Name, in[0], fn, opts))
	})
	// accum and scan share their attrs and their rebuild.
	accumLike := func(mk func(g *graph.Graph, name string, in *graph.Stream, b int, fn AccumFn, opts ComputeOpts) *graph.Stream) func(*graph.DecodeCtx, accumAttrs, []*graph.Stream) ([]*graph.Stream, error) {
		return func(dc *graph.DecodeCtx, a accumAttrs, in []*graph.Stream) ([]*graph.Stream, error) {
			fn, err := lookupFn[AccumFn](dc.Node.Name, a.Fn)
			if err != nil {
				return nil, err
			}
			opts, err := optsFromIR(a.Opts)
			if err != nil {
				return nil, err
			}
			return outs(mk(dc.G, dc.Node.Name, in[0], a.B, fn, opts))
		}
	}
	accumKind = registerOp("accum", 1, accumLike(Accum))
	scanKind = registerOp("scan", 1, accumLike(Scan))
	flatMapKind = registerOp("flatmap", 1, func(dc *graph.DecodeCtx, a flatMapAttrs, in []*graph.Stream) ([]*graph.Stream, error) {
		fn, err := lookupFn[FlatMapFn](dc.Node.Name, a.Fn)
		if err != nil {
			return nil, err
		}
		dims, err := graph.DimsFromIR(a.InnerDims)
		if err != nil {
			return nil, err
		}
		return outs(FlatMap(dc.G, dc.Node.Name, in[0], a.B, fn, dims))
	})
	flattenKind = registerOp("flatten", 1, func(dc *graph.DecodeCtx, a flattenAttrs, in []*graph.Stream) ([]*graph.Stream, error) {
		return outs(Flatten(dc.G, dc.Node.Name, in[0], a.Min, a.Max))
	})
	reshapeKind = registerOp("reshape", 1, func(dc *graph.DecodeCtx, a reshapeAttrs, in []*graph.Stream) ([]*graph.Stream, error) {
		pad, at, err := graph.Seeded(dc.Env, func(env *graph.DecodeEnv) (element.Value, error) {
			if a.Pad == nil {
				return nil, nil
			}
			return graph.ValueFromIR(a.Pad, env)
		})
		if err != nil {
			return nil, err
		}
		data, padding := Reshape(dc.G, dc.Node.Name, in[0], a.Rank, a.Chunk, pad)
		data.Producer().Op.(*reshapeOp).padAt = at
		return outs(data, padding)
	})
	promoteKind = registerOp("promote", 1, func(dc *graph.DecodeCtx, _ noAttrs, in []*graph.Stream) ([]*graph.Stream, error) {
		return outs(Promote(dc.G, dc.Node.Name, in[0]))
	})
	expandKind = registerOp("expand", 2, func(dc *graph.DecodeCtx, a expandAttrs, in []*graph.Stream) ([]*graph.Stream, error) {
		return outs(Expand(dc.G, dc.Node.Name, in[0], in[1], a.Rank))
	})
	zipKind = registerOp("zip", 2, func(dc *graph.DecodeCtx, _ noAttrs, in []*graph.Stream) ([]*graph.Stream, error) {
		return outs(Zip(dc.G, dc.Node.Name, in[0], in[1]))
	})
	repeatKind = registerOp("repeat-elems", 1, func(dc *graph.DecodeCtx, a repeatAttrs, in []*graph.Stream) ([]*graph.Stream, error) {
		return outs(RepeatElems(dc.G, dc.Node.Name, in[0], a.Count))
	})
}
