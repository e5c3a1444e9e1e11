package workloads

import (
	"fmt"

	"step/internal/element"
	"step/internal/graph"
	"step/internal/ops"
	"step/internal/shape"
	"step/internal/symbolic"
	"step/internal/tile"
	"step/internal/trace"
)

// MoELayerConfig parameterizes the evaluation's MoE layer (§5.1): SwiGLU
// experts y = (SiLU(x·W1) ⊙ (x·W3))·W2 with top-k routing, under a tiling
// strategy and an optional configuration time-multiplexing degree.
type MoELayerConfig struct {
	Model ModelConfig
	Batch int
	// TileSize is the packed-tile row count for static tiling; ignored
	// when Dynamic is set.
	TileSize int
	// Dynamic selects dynamic tiling (§5.2): each expert packs all its
	// tokens into one dynamically-sized tile.
	Dynamic bool
	// DynamicCap bounds dynamic tile rows (0 = unbounded). Large batches
	// use a cap so experts emit tiles as tokens arrive instead of waiting
	// for the whole batch, keeping compute pipelined with routing while
	// the final tile stays ragged (no padding).
	DynamicCap int
	// Regions is the number of spatially-configured expert regions.
	// Regions == NumExperts (or 0) means every expert has its own region;
	// fewer regions time-multiplex one configuration across
	// NumExperts/Regions experts (§5.3, Fig. 11).
	Regions int
	// Routing assigns tokens to experts (from a trace).
	Routing trace.ExpertRouting
	// Functional computes real element values (small tests); otherwise
	// tiles are shape-only and only timing/bytes/FLOPs are modeled.
	Functional bool
	Seed       uint64
}

// Validate checks the configuration.
func (c *MoELayerConfig) Validate() error {
	m := c.Model
	// Model dimensions first: the strip-divisibility check below divides
	// by WeightStrip, which a zero-dimension model (Scaled too far) would
	// turn into a panic.
	if err := m.Validate(); err != nil {
		return err
	}
	if m.Inter%m.WeightStrip != 0 {
		return fmt.Errorf("workloads: inter %d not divisible by strip %d", m.Inter, m.WeightStrip)
	}
	if len(c.Routing.Assignments) != c.Batch {
		return fmt.Errorf("workloads: routing covers %d tokens, batch is %d", len(c.Routing.Assignments), c.Batch)
	}
	if c.Routing.NumExperts != m.NumExperts {
		return fmt.Errorf("workloads: routing over %d experts, model has %d", c.Routing.NumExperts, m.NumExperts)
	}
	if !c.Dynamic && c.TileSize < 1 {
		return fmt.Errorf("workloads: static tiling needs TileSize >= 1")
	}
	if c.Regions == 0 {
		c.Regions = m.NumExperts
	}
	if m.NumExperts%c.Regions != 0 {
		return fmt.Errorf("workloads: %d experts not divisible by %d regions", m.NumExperts, c.Regions)
	}
	return nil
}

// MoELayer is a built MoE-layer graph with its symbolic environment and
// inspection handles.
type MoELayer struct {
	// Program is the compiled layer: run it with Program.Run.
	Program *graph.Program
	Cfg     MoELayerConfig
	Env     symbolic.Env
	Output  *ops.CaptureOp
	// counts[e] is the number of tokens routed to expert e.
	counts []int
	// inputs/weights retained for functional validation.
	input *tile.Tile
	w1    []*tile.Tile // [e]: Hidden x Inter
	w3    []*tile.Tile
	w2    []*tile.Tile // [e]: Inter x Hidden
}

// ExpertCounts returns tokens per expert.
func (l *MoELayer) ExpertCounts() []int { return l.counts }

// OnchipBytes evaluates the program's §4.2 on-chip requirement under the
// layer's symbol bindings.
func (l *MoELayer) OnchipBytes() (int64, error) {
	return l.Program.OnchipBytesExpr().Eval(l.Env)
}

// SymbolicTrafficBytes evaluates the §4.2 off-chip traffic equation under
// the layer's symbol bindings.
func (l *MoELayer) SymbolicTrafficBytes() (int64, error) {
	return l.Program.OffchipTrafficBytesExpr().Eval(l.Env)
}

// moeBuilder carries shared build state.
type moeBuilder struct {
	g      *graph.Graph
	cfg    MoELayerConfig
	env    symbolic.Env
	counts []int
	// nStrips is Inter / WeightStrip.
	nStrips int
	input   *tile.Tile
	w1, w3  []*tile.Tile
	w2      []*tile.Tile
}

// BuildMoELayer constructs the MoE layer graph for the configured tiling
// and time-multiplexing strategy.
func BuildMoELayer(cfg MoELayerConfig) (*MoELayer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := cfg.Model
	b := &moeBuilder{
		g:       graph.New(),
		cfg:     cfg,
		env:     symbolic.Env{},
		nStrips: m.Inter / m.WeightStrip,
	}
	b.counts = make([]int, m.NumExperts)
	for _, as := range cfg.Routing.Assignments {
		for _, e := range as {
			b.counts[e]++
		}
	}
	b.makeWeights()

	// Token stream [B, 1] of [1, H] row tiles.
	in := b.tokenSource()
	// Routing selector (top-k multi-hot), used by Partition and the final
	// Reassemble.
	sels := ops.Broadcast(b.g, "routing.bc", b.selectorSource(), 2)
	// The gather-side selector copy is consumed only as expert outputs
	// drain; it must buffer the whole batch (the reorder window).
	sels[1].SetDepth(cfg.Batch + 2)
	parts := ops.Partition(b.g, "route", in, sels[0], 1, m.NumExperts)
	for e := range parts {
		parts[e].OverrideShape(shape.New(b.namedDim(fmt.Sprintf("De_%d", e), b.counts[e]), shape.Static(1)))
	}

	// Per-expert pack stage.
	packed := make([]*graph.Stream, m.NumExperts)
	padFlags := make([]*graph.Stream, m.NumExperts)
	for e := range parts {
		packed[e], padFlags[e] = b.packExpert(e, parts[e])
	}

	// Expert compute: dedicated regions or time-multiplexed regions.
	var rowStreams []*graph.Stream
	if cfg.Regions == m.NumExperts {
		rowStreams = make([]*graph.Stream, m.NumExperts)
		for e := range packed {
			x, w := b.loadDedicatedWeights(e, packed[e])
			y := b.expertCompute(fmt.Sprintf("e%d", e), x, w)
			rowStreams[e] = b.unpackExpert(e, y, padFlags[e])
		}
	} else {
		var err error
		rowStreams, err = b.timeMultiplexedCompute(packed, padFlags)
		if err != nil {
			return nil, err
		}
	}

	// Gather rows per token and combine the top-k expert outputs.
	gathered := ops.Reassemble(b.g, "merge", rowStreams, sels[1], 1)
	out := ops.Accum(b.g, "combine", gathered, 2, ops.ElemAddFn(), ops.ComputeOpts{ComputeBW: 64})
	cap := ops.Capture(b.g, "out", out)

	prog, err := b.g.Compile()
	if err != nil {
		return nil, err
	}
	return &MoELayer{
		Program: prog, Cfg: cfg, Env: b.env, Output: cap,
		counts: b.counts, input: b.input, w1: b.w1, w3: b.w3, w2: b.w2,
	}, nil
}

// namedDim introduces a named dynamic dimension bound to a concrete value
// in the layer's environment (the §4.2 "substituting symbols" workflow).
func (b *moeBuilder) namedDim(name string, value int) shape.Dim {
	b.env[name] = int64(value)
	return shape.Dynamic(symbolic.Sym(name))
}

// makeWeights builds per-expert weight tensors (shape-only unless
// functional).
func (b *moeBuilder) makeWeights() {
	m := b.cfg.Model
	n := m.NumExperts
	b.w1 = make([]*tile.Tile, n)
	b.w3 = make([]*tile.Tile, n)
	b.w2 = make([]*tile.Tile, n)
	for e := 0; e < n; e++ {
		if b.cfg.Functional {
			b.w1[e] = tile.Random(m.Hidden, m.Inter, b.cfg.Seed+uint64(e)*3+1)
			b.w3[e] = tile.Random(m.Hidden, m.Inter, b.cfg.Seed+uint64(e)*3+2)
			b.w2[e] = tile.Random(m.Inter, m.Hidden, b.cfg.Seed+uint64(e)*3+3)
		} else {
			b.w1[e] = tile.ShapeOnly(m.Hidden, m.Inter)
			b.w3[e] = tile.ShapeOnly(m.Hidden, m.Inter)
			b.w2[e] = tile.ShapeOnly(m.Inter, m.Hidden)
		}
	}
}

// tokenSource emits the [B, 1] token-row stream.
func (b *moeBuilder) tokenSource() *graph.Stream {
	m := b.cfg.Model
	if b.cfg.Functional {
		b.input = tile.Random(b.cfg.Batch, m.Hidden, b.cfg.Seed)
	} else {
		b.input = tile.ShapeOnly(b.cfg.Batch, m.Hidden)
	}
	elems := make([]element.Element, 0, 2*b.cfg.Batch+1)
	for i := 0; i < b.cfg.Batch; i++ {
		var row *tile.Tile
		if b.cfg.Functional {
			row = b.input.Slice(i, i+1, 0, m.Hidden)
		} else {
			row = tile.ShapeOnly(1, m.Hidden)
		}
		elems = append(elems, element.DataOf(element.TileVal{T: row}), element.StopOf(1))
	}
	elems = append(elems, element.DoneElem)
	return ops.Source(b.g, "tokens", shape.OfInts(b.cfg.Batch, 1), graph.StaticTile(1, m.Hidden), elems)
}

// selectorSource emits the routing selector stream.
func (b *moeBuilder) selectorSource() *graph.Stream {
	m := b.cfg.Model
	elems := make([]element.Element, 0, b.cfg.Batch+1)
	for _, as := range b.cfg.Routing.Assignments {
		elems = append(elems, element.DataOf(element.NewSelector(m.NumExperts, as...)))
	}
	elems = append(elems, element.DoneElem)
	return ops.Source(b.g, "routing", shape.OfInts(b.cfg.Batch), graph.SelectorType{N: m.NumExperts}, elems)
}

// packExpert packs one expert's routed rows into tiles. For static tiling
// the rows are padded into TileSize-row tiles and the pad-flag stream is
// returned; for dynamic tiling all rows pack into one dynamically-sized
// tile and the flag stream is nil.
func (b *moeBuilder) packExpert(e int, part *graph.Stream) (packed, padFlags *graph.Stream) {
	m := b.cfg.Model
	name := fmt.Sprintf("e%d", e)
	flat := ops.Flatten(b.g, name+".flatten", part, 0, 1)
	if b.cfg.Dynamic {
		cap := b.cfg.DynamicCap
		tileRows := b.counts[e]
		nTiles := 0
		if tileRows > 0 {
			nTiles = 1
		}
		var grouped *graph.Stream
		if cap > 0 {
			// Capacity-bounded dynamic tiling: chunks of at most cap rows,
			// the final chunk ragged (no padding).
			if tileRows > cap {
				tileRows = cap
			}
			nTiles = (b.counts[e] + cap - 1) / cap
			rows, flags := ops.Reshape(b.g, name+".chunk", flat, 0, cap, nil)
			ops.Sink(b.g, name+".chunk.padsink", flags)
			grouped = rows
		} else {
			grouped = ops.Promote(b.g, name+".promote", flat)
		}
		rowsDim := b.namedDim(fmt.Sprintf("Dc_%d", e), tileRows)
		fn := ops.RetileRowToFn(graph.TileType{Rows: rowsDim, Cols: shape.Static(m.Hidden)})
		packed = ops.Accum(b.g, name+".pack", grouped, 1, fn, ops.ComputeOpts{})
		packed.OverrideShape(shape.New(b.namedDim(fmt.Sprintf("Ne_%d", e), nTiles)))
		return packed, nil
	}
	var pad element.Value
	if b.cfg.Functional {
		pad = element.TileVal{T: tile.New(1, m.Hidden)}
	} else {
		pad = element.TileVal{T: tile.ShapeOnly(1, m.Hidden)}
	}
	rows, flags := ops.Reshape(b.g, name+".reshape", flat, 0, b.cfg.TileSize, pad)
	// Pad flags are produced while packing but consumed only when this
	// expert's outputs unpack; buffer the full flag stream to keep the
	// pack stage from stalling on the flag channel.
	flags.SetDepth(2*b.unpackedRows(e) + 4)
	fn := ops.RetileRowToFn(graph.StaticTile(b.cfg.TileSize, m.Hidden))
	packed = ops.Accum(b.g, name+".pack", rows, 1, fn, ops.ComputeOpts{})
	nTiles := (b.counts[e] + b.cfg.TileSize - 1) / b.cfg.TileSize
	packed.OverrideShape(shape.New(b.namedDim(fmt.Sprintf("Ne_%d", e), nTiles)))
	return packed, flags
}

// expertWeights is the trio of per-strip weight streams feeding one
// expert-compute subgraph, aligned with the expanded input stream.
type expertWeights struct {
	w1, w3, w2 *graph.Stream
}

// loadDedicatedWeights loads this expert's weight strips via
// LinearOffChipLoad, once per packed tile (the non-multiplexed Fig. 7
// pattern). It returns the surviving copy of the packed stream (the
// original is consumed as load references) and streams shaped
// [N, nStrips] for the three weights.
func (b *moeBuilder) loadDedicatedWeights(e int, packed *graph.Stream) (*graph.Stream, expertWeights) {
	m := b.cfg.Model
	name := fmt.Sprintf("e%d", e)
	refs := ops.Broadcast(b.g, name+".wrefs", packed, 4)
	load := func(tag string, w *tile.Tile, rows, cols int, ref *graph.Stream) *graph.Stream {
		tensor, err := ops.NewOffChipTensor(w, rows, cols)
		if err != nil {
			b.g.Errf("%s.%s: %v", name, tag, err)
		}
		grid := w.Cols / cols * (w.Rows / rows)
		s := ops.LinearOffChipLoad(b.g, name+"."+tag, ref, tensor, [2]int{grid, 1}, [2]int{1, grid})
		return ops.Flatten(b.g, name+"."+tag+".flat", s, 0, 1)
	}
	w := expertWeights{
		w1: load("w1", b.w1[e], m.Hidden, m.WeightStrip, refs[1]),
		w3: load("w3", b.w3[e], m.Hidden, m.WeightStrip, refs[2]),
		w2: load("w2", b.w2[e], m.WeightStrip, m.Hidden, refs[3]),
	}
	return refs[0], w
}

// timeMultiplexedCompute shares one configured expert subgraph across
// NumExperts/Regions experts per region (§5.3, Fig. 11): packed tiles are
// eagerly merged into the region, the selected expert's weight strips are
// fetched with RandomOffChipLoad, and results are re-partitioned to the
// owning expert for unpacking.
func (b *moeBuilder) timeMultiplexedCompute(packed, padFlags []*graph.Stream) ([]*graph.Stream, error) {
	m := b.cfg.Model
	perRegion := m.NumExperts / b.cfg.Regions
	rowStreams := make([]*graph.Stream, m.NumExperts)
	for r := 0; r < b.cfg.Regions; r++ {
		name := fmt.Sprintf("r%d", r)
		group := make([]int, perRegion)
		ins := make([]*graph.Stream, perRegion)
		totalTiles, maxRows := 0, 1
		for i := range group {
			e := r*perRegion + i
			group[i] = e
			ins[i] = packed[e]
			nt := b.env[fmt.Sprintf("Ne_%d", e)]
			totalTiles += int(nt)
			rows := b.counts[e]
			if b.cfg.DynamicCap > 0 && rows > b.cfg.DynamicCap {
				rows = b.cfg.DynamicCap
			}
			if rows > maxRows {
				maxRows = rows
			}
		}
		merged, msel := ops.EagerMerge(b.g, name+".merge", ins)
		nrDim := b.namedDim(fmt.Sprintf("Nr_%d", r), totalTiles)
		merged.OverrideShape(shape.New(nrDim))
		msel.OverrideShape(shape.New(nrDim))
		rowsDim := shape.Static(b.cfg.TileSize)
		if b.cfg.Dynamic {
			rowsDim = b.namedDim(fmt.Sprintf("Dmax_%d", r), maxRows)
		}
		merged.OverrideDType(graph.TileType{Rows: rowsDim, Cols: shape.Static(m.Hidden)})

		mselBC := ops.Broadcast(b.g, name+".msel.bc", msel, 4)
		// Result reordering across the region requires buffering the
		// selector until the region's outputs drain.
		mselBC[3].SetDepth(totalTiles + 2)

		// Weight tables: strips of every expert in the group, addressed by
		// local expert index × strip.
		w1t := make([]*tile.Tile, 0, perRegion*b.nStrips)
		w3t := make([]*tile.Tile, 0, perRegion*b.nStrips)
		w2t := make([]*tile.Tile, 0, perRegion*b.nStrips)
		for _, e := range group {
			for j := 0; j < b.nStrips; j++ {
				w1t = append(w1t, b.w1[e].Slice(0, m.Hidden, j*m.WeightStrip, (j+1)*m.WeightStrip))
				w3t = append(w3t, b.w3[e].Slice(0, m.Hidden, j*m.WeightStrip, (j+1)*m.WeightStrip))
				w2t = append(w2t, b.w2[e].Slice(j*m.WeightStrip, (j+1)*m.WeightStrip, 0, m.Hidden))
			}
		}
		wload := func(tag string, sel *graph.Stream, table []*tile.Tile) *graph.Stream {
			addrs := ops.FlatMap(b.g, name+"."+tag+".addr", sel, 1, ops.StripAddrsFn(b.nStrips),
				[]shape.Dim{nrDim, shape.Static(b.nStrips)})
			// FlatMap replaces the selector stream's single dim with two;
			// drop the duplicated outer dim introduced by rank-1 fragments.
			addrs.OverrideShape(shape.New(nrDim, shape.Static(b.nStrips)))
			return ops.RandomOffChipLoad(b.g, name+"."+tag, addrs, table)
		}
		w := expertWeights{
			w1: wload("w1", mselBC[0], w1t),
			w3: wload("w3", mselBC[1], w3t),
			w2: wload("w2", mselBC[2], w2t),
		}
		y := b.expertCompute(name, merged, w)
		parts := ops.Partition(b.g, name+".split", y, mselBC[3], 0, perRegion)
		for i, e := range group {
			parts[i].OverrideShape(shape.New(b.namedDim(fmt.Sprintf("Ne_%d", e), int(b.env[fmt.Sprintf("Ne_%d", e)]))))
			parts[i].OverrideDType(merged.DType)
			rowStreams[e] = b.unpackExpert(e, parts[i], padFlags[e])
		}
	}
	return rowStreams, nil
}

// expertCompute builds the SwiGLU dataflow for one expert (or one
// time-multiplexed region): h = SiLU(x·W1) ⊙ (x·W3); y = h·W2 reduced over
// strips. The packed stream must be refs-broadcast output 0 when weights
// were loaded with loadDedicatedWeights.
func (b *moeBuilder) expertCompute(name string, packed *graph.Stream, w expertWeights) *graph.Stream {
	m := b.cfg.Model
	rowsDim := b.tileRowsDim(packed)
	// Expand x per weight strip.
	x := ops.RepeatElems(b.g, name+".xexpand", packed, b.nStrips)
	xBC := ops.Broadcast(b.g, name+".x.bc", x, 2)

	bw := b.computeBW(rowsDim)
	stripBytes := symbolic.Const(int64(m.Hidden) * int64(m.WeightStrip) * tile.ElemBytes)
	hTileBytes := symbolic.Mul(rowsDim.Size, symbolic.Const(int64(m.WeightStrip)*tile.ElemBytes))
	yTileBytes := symbolic.Mul(rowsDim.Size, symbolic.Const(int64(m.Hidden)*tile.ElemBytes))

	a := ops.Map2(b.g, name+".xw1", xBC[0], w.w1, ops.MatmulFn(),
		ops.MatmulOpts(bw, symbolic.Const(int64(m.Hidden)), stripBytes, hTileBytes, false))
	c := ops.Map2(b.g, name+".xw3", xBC[1], w.w3, ops.MatmulFn(),
		ops.MatmulOpts(bw, symbolic.Const(int64(m.Hidden)), stripBytes, hTileBytes, false))
	sa := ops.Map(b.g, name+".silu", a, ops.SiLUFn(), ops.ComputeOpts{ComputeBW: 64})
	h := ops.Map2(b.g, name+".gate", sa, c, ops.ElemMulFn(), ops.ComputeOpts{ComputeBW: 64})

	// y = Σ_strips h_strip × W2_strip.
	hw := ops.Zip(b.g, name+".hw2.zip", h, w.w2)
	y := ops.Accum(b.g, name+".yacc", hw, 1, ops.MatmulAccFn(),
		ops.MatmulOpts(bw, symbolic.Const(int64(m.WeightStrip)),
			symbolic.Const(int64(m.WeightStrip)*int64(m.Hidden)*tile.ElemBytes), yTileBytes, true))
	return y
}

// tileRowsDim recovers the packed-tile row dimension from the stream's
// tile type.
func (b *moeBuilder) tileRowsDim(packed *graph.Stream) shape.Dim {
	if tt, ok := packed.DType.(graph.TileType); ok {
		return tt.Rows
	}
	return shape.Static(1)
}

// computeBW allocates FLOPs/cycle to a strip matmul so that, at the
// configured tile size, compute matches the strip's off-chip load time —
// the memory-bound balance point of §5.1. Dynamic tiling sizes the
// allocation to the expert's actual token count.
func (b *moeBuilder) computeBW(rows shape.Dim) int64 {
	r, ok := rows.IsStatic()
	if !ok {
		v, err := rows.Size.Eval(b.env)
		if err != nil || v < 1 {
			v = 1
		}
		r = int(v)
	}
	if r < 1 {
		r = 1
	}
	return int64(r) * 1024
}

// unpackExpert splits expert output tiles back into rows, drops padded
// rows (static tiling), and regroups rows as rank-1 subtrees for the
// final Reassemble.
func (b *moeBuilder) unpackExpert(e int, y *graph.Stream, padFlags *graph.Stream) *graph.Stream {
	name := fmt.Sprintf("e%d", e)
	rows := ops.FlatMap(b.g, name+".unpack", y, 0, ops.RetileStreamifyFn(1),
		[]shape.Dim{b.namedDim(fmt.Sprintf("Dr_%d", e), b.unpackedRows(e))})
	if padFlags != nil {
		padFlat := ops.Flatten(b.g, name+".padflat", padFlags, 0, 1)
		keep := ops.Map(b.g, name+".keepsel", padFlat, ops.FlagToSelectorFn(), ops.ComputeOpts{})
		kept := ops.Partition(b.g, name+".droppad", rows, keep, 0, 2)
		ops.Sink(b.g, name+".padsink", kept[1])
		rows = kept[0]
		rows.OverrideShape(shape.New(b.namedDim(fmt.Sprintf("De_%d", e), b.counts[e])))
	}
	out := ops.RepeatElems(b.g, name+".rowgroups", rows, 1)
	// The final Reassemble gathers rows in token order; an expert's rows
	// can sit completed while earlier tokens' experts finish, so the row
	// channel is the reorder buffer (cf. the paper's note that interleaved
	// schedules need large buffers in front of parallel regions).
	out.SetDepth(2*b.counts[e] + 4)
	return out
}

// unpackedRows is the number of rows an expert's output tiles unpack into
// (including padding for static tiling).
func (b *moeBuilder) unpackedRows(e int) int {
	if b.cfg.Dynamic {
		return b.counts[e]
	}
	n := (b.counts[e] + b.cfg.TileSize - 1) / b.cfg.TileSize
	return n * b.cfg.TileSize
}
