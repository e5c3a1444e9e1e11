package workloads

import (
	"fmt"

	"step/internal/element"
	"step/internal/graph"
	"step/internal/ops"
	"step/internal/shape"
	"step/internal/tile"
)

// ParallelStrategy selects how decode-attention requests are distributed
// across the spatially parallel regions (§5.4).
type ParallelStrategy int

const (
	// StaticCoarse assigns a fixed contiguous block of requests per region.
	StaticCoarse ParallelStrategy = iota
	// StaticInterleaved assigns requests round-robin.
	StaticInterleaved
	// DynamicParallel dispatches each request to whichever region becomes
	// available first, via the Fig. 16 selector feedback loop.
	DynamicParallel
)

func (s ParallelStrategy) String() string {
	switch s {
	case StaticCoarse:
		return "static-coarse"
	case StaticInterleaved:
		return "static-interleaved"
	default:
		return "dynamic"
	}
}

// AttentionConfig parameterizes the decode-attention workload: one query
// token per request, attending over a KV cache of per-request length.
type AttentionConfig struct {
	Model ModelConfig
	// KVLens holds one KV-cache length per request; len(KVLens) is the
	// batch size.
	KVLens   []int
	Strategy ParallelStrategy
	// Regions is the spatial parallelism degree (4 in §5.4).
	Regions int
	// KVChunk is the KV rows streamed per tile.
	KVChunk int
	// Microbatches optionally splits the batch for StaticCoarse block
	// assignment (the B=64+16 pipelined case of Fig. 21); entries must sum
	// to len(KVLens).
	Microbatches []int
	// CoarseBlock fixes the number of requests per region for StaticCoarse
	// (16 in §5.4); 0 splits the batch evenly.
	CoarseBlock int
	// RegionFIFODepth bounds the FIFO in front of each static region
	// (0 = deep enough for the whole block). Appendix B.5 notes static
	// interleaved parallelization needs large buffers in front of each
	// region to avoid blocking on long requests; shrinking this exposes
	// that effect.
	RegionFIFODepth int
	// IncludeQKV prepends the per-request QKV projection to each region
	// (used by the end-to-end decoder of Fig. 17): the QKV weight streams
	// from off-chip once per region and every request pays the projection
	// FLOPs.
	IncludeQKV bool
}

// Validate checks the configuration.
func (c *AttentionConfig) Validate() error {
	if err := c.Model.ValidateAttention(); err != nil {
		return err
	}
	if len(c.KVLens) == 0 {
		return fmt.Errorf("workloads: attention needs at least one request")
	}
	if c.Regions < 1 {
		return fmt.Errorf("workloads: attention needs >= 1 region")
	}
	if len(c.KVLens) < c.Regions {
		return fmt.Errorf("workloads: batch %d below region count %d", len(c.KVLens), c.Regions)
	}
	if c.KVChunk < 1 {
		c.KVChunk = 64
	}
	if len(c.Microbatches) > 0 {
		sum := 0
		for _, m := range c.Microbatches {
			sum += m
		}
		if sum != len(c.KVLens) {
			return fmt.Errorf("workloads: microbatches sum to %d, batch is %d", sum, len(c.KVLens))
		}
	}
	return nil
}

// Attention is a built attention graph with inspection handles.
type Attention struct {
	// Program is the compiled attention graph.
	Program *graph.Program
	Cfg     AttentionConfig
	Output  *ops.CaptureOp
}

// BuildAttention constructs the decode-attention graph under the given
// parallelization strategy.
func BuildAttention(cfg AttentionConfig) (*Attention, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := graph.New()
	b := len(cfg.KVLens)
	m := cfg.Model

	// Request stream: [B, 1] of request-index scalars. The scalar stands
	// for the request's query row; the KV length drives the dynamic work.
	reqElems := make([]element.Element, 0, 2*b+1)
	for i := 0; i < b; i++ {
		reqElems = append(reqElems, element.DataOf(element.Scalar{V: int64(i)}), element.StopOf(1))
	}
	reqElems = append(reqElems, element.DoneElem)
	reqs := ops.Source(g, "requests", shape.OfInts(b, 1), graph.ScalarType{}, reqElems)

	_ = m
	// Region results, built per strategy.
	var results []*graph.Stream
	if cfg.Strategy == DynamicParallel {
		results = buildDynamicAttention(g, cfg, reqs)
	} else {
		sel := staticSelector(g, cfg)
		parts := ops.Partition(g, "dispatch", reqs, sel, 1, cfg.Regions)
		results = make([]*graph.Stream, cfg.Regions)
		for r := 0; r < cfg.Regions; r++ {
			// Static assignment queues the region's whole block up front
			// unless the ablation bounds the region FIFO.
			depth := 2*b + 4
			if cfg.RegionFIFODepth > 0 {
				depth = cfg.RegionFIFODepth
			}
			parts[r].SetDepth(depth)
			results[r] = buildAttentionRegion(g, fmt.Sprintf("r%d", r), cfg, parts[r])
		}
	}

	merged, mergedSel := ops.EagerMerge(g, "collect", results)
	ops.Sink(g, "collect.selsink", mergedSel)
	cap := ops.Capture(g, "out", merged)
	prog, err := g.Compile()
	if err != nil {
		return nil, err
	}
	return &Attention{Program: prog, Cfg: cfg, Output: cap}, nil
}

// staticSelector builds the coarse or interleaved dispatch selector.
func staticSelector(g *graph.Graph, cfg AttentionConfig) *graph.Stream {
	b := len(cfg.KVLens)
	elems := make([]element.Element, 0, b+1)
	if cfg.Strategy == StaticInterleaved {
		for i := 0; i < b; i++ {
			elems = append(elems, element.DataOf(element.NewSelector(cfg.Regions, i%cfg.Regions)))
		}
	} else {
		mbs := cfg.Microbatches
		if len(mbs) == 0 {
			mbs = []int{b}
		}
		for _, mb := range mbs {
			per := cfg.CoarseBlock
			if per <= 0 {
				per = (mb + cfg.Regions - 1) / cfg.Regions
			}
			for i := 0; i < mb; i++ {
				r := i / per
				if r >= cfg.Regions {
					r = cfg.Regions - 1
				}
				elems = append(elems, element.DataOf(element.NewSelector(cfg.Regions, r)))
			}
		}
	}
	elems = append(elems, element.DoneElem)
	return ops.Source(g, "dispatch-sel", shape.OfInts(b), graph.SelectorType{N: cfg.Regions}, elems)
}

// buildDynamicAttention wires the Fig. 16 feedback loop: the dispatch
// selector stream is the eager merge of an initial round-robin assignment
// (one request per region) with region-availability signals — the selector
// output of an EagerMerge over completed results. The cycle
// (Partition → regions → completion merge → selector merge → Partition) is
// closed with a Relay, whose input is attached after the regions exist.
func buildDynamicAttention(g *graph.Graph, cfg AttentionConfig, reqs *graph.Stream) []*graph.Stream {
	b := len(cfg.KVLens)
	initElems := make([]element.Element, 0, cfg.Regions+1)
	for r := 0; r < cfg.Regions; r++ {
		initElems = append(initElems, element.DataOf(element.NewSelector(cfg.Regions, r)))
	}
	initElems = append(initElems, element.DoneElem)
	initRR := ops.Source(g, "init-rr", shape.OfInts(cfg.Regions), graph.SelectorType{N: cfg.Regions}, initElems)

	relay, relayOut := ops.Relay(g, "avail-relay", graph.SelectorType{N: cfg.Regions},
		shape.New(shape.FreshRagged("A")))
	dynSelRaw, dynSelSel := ops.EagerMerge(g, "dyn-sel.merge", []*graph.Stream{initRR, relayOut})
	ops.Sink(g, "dyn-sel.selsink", dynSelSel)
	dynSel := ops.Take(g, "dyn-sel.take", dynSelRaw, b)
	parts := ops.Partition(g, "dispatch", reqs, dynSel, 1, cfg.Regions)

	results := make([]*graph.Stream, cfg.Regions)
	completions := make([]*graph.Stream, cfg.Regions)
	for r := 0; r < cfg.Regions; r++ {
		out := buildAttentionRegion(g, fmt.Sprintf("r%d", r), cfg, parts[r])
		bc := ops.Broadcast(g, fmt.Sprintf("r%d.done.bc", r), out, 2)
		results[r] = bc[0]
		completions[r] = bc[1]
	}
	availData, avail := ops.EagerMerge(g, "avail.merge", completions)
	ops.Sink(g, "avail.datasink", availData)
	ops.RelayFeed(g, relay, avail)
	return results
}

// buildAttentionRegion builds one parallel region: per request, stream the
// KV cache in chunks from off-chip memory, compute attention per chunk,
// and reduce to one output row.
func buildAttentionRegion(g *graph.Graph, name string, cfg AttentionConfig, in *graph.Stream) *graph.Stream {
	m := cfg.Model
	kvWidth := 2 * m.KVHeads * m.HeadDim
	chunkTile := tile.ShapeOnly(cfg.KVChunk, kvWidth)
	kvLens := cfg.KVLens
	chunk := cfg.KVChunk

	flat := ops.Flatten(g, name+".flatten", in, 0, 1)
	if cfg.IncludeQKV {
		// QKV projection: the fused weight [H, (q+2kv)·d] streams from
		// off-chip once per region; each request pays the projection work.
		qkvCols := (m.QHeads + 2*m.KVHeads) * m.HeadDim
		wqkv := tile.ShapeOnly(m.Hidden, qkvCols)
		tensor, err := ops.NewOffChipTensor(wqkv, m.Hidden, qkvCols)
		if err != nil {
			g.Errf("%s.qkv: %v", name, err)
		}
		ws := ops.LinearOffChipLoadStatic(g, name+".qkvload", 1, tensor, [2]int{1, 1}, [2]int{1, 1})
		ops.Sink(g, name+".qkvsink", ws)
		qkvFlops := 2 * int64(m.Hidden) * int64(qkvCols)
		qkvBW := qkvFlops / 16
		if qkvBW < 1 {
			qkvBW = 1
		}
		qkvFn := ops.MapFn{
			Name: "qkv",
			Apply: func(v element.Value) (element.Value, int64, error) {
				return v, qkvFlops, nil
			},
		}
		flat = ops.Map(g, name+".qkv", flat, qkvFn, ops.ComputeOpts{ComputeBW: qkvBW})
	}
	// Expand each request into its KV chunk addresses.
	addrFn := ops.FlatMapFn{
		Name: "kv-chunks",
		Apply: func(v element.Value) ([]element.Element, int64, error) {
			sc, ok := v.(element.Scalar)
			if !ok {
				return nil, 0, fmt.Errorf("kv-chunks: expected request scalar, got %T", v)
			}
			if sc.V < 0 || int(sc.V) >= len(kvLens) {
				return nil, 0, fmt.Errorf("kv-chunks: request %d out of range", sc.V)
			}
			n := (kvLens[sc.V] + chunk - 1) / chunk
			out := make([]element.Element, 0, n+1)
			for j := 0; j < n; j++ {
				out = append(out, element.DataOf(element.Scalar{V: 0}))
			}
			out = append(out, element.StopOf(1))
			return out, 0, nil
		},
	}
	addrs := ops.FlatMap(g, name+".addrs", flat, 1, addrFn,
		[]shape.Dim{shape.FreshRagged("N"), shape.FreshRagged("C")})
	kv := ops.RandomOffChipLoad(g, name+".kvload", addrs, []*tile.Tile{chunkTile})

	// Per-chunk attention work: q·Kᵀ, softmax fragment, ·V. FLOPs are
	// 4·chunk·qHeads·headDim plus softmax overhead; compute bandwidth is
	// balanced against the chunk's off-chip load time (§5.1 memory-bound
	// balance).
	flopsPerChunk := int64(4*cfg.KVChunk*m.QHeads*m.HeadDim) + int64(5*cfg.KVChunk*m.QHeads)
	chunkBytes := chunkTile.Bytes()
	loadCycles := (chunkBytes + 1023) / 1024
	if loadCycles < 1 {
		loadCycles = 1
	}
	bw := flopsPerChunk / loadCycles
	if bw < 1 {
		bw = 1
	}
	outWidth := m.QHeads * m.HeadDim
	attnFn := ops.MapFn{
		Name: "attn-chunk",
		Apply: func(v element.Value) (element.Value, int64, error) {
			return element.TileVal{T: tile.ShapeOnly(1, outWidth)}, flopsPerChunk, nil
		},
		OutType: func(graph.DType) graph.DType { return graph.StaticTile(1, outWidth) },
	}
	partials := ops.Map(g, name+".attn", kv, attnFn, ops.ComputeOpts{ComputeBW: bw, MemIn: true})
	combine := ops.ElemAddFn()
	combine.OutType = func(graph.DType) graph.DType { return graph.StaticTile(1, outWidth) }
	// The region's output is a rank-0 row stream: each element is one
	// completed request, so completion signals (Fig. 16) propagate the
	// moment a request finishes.
	return ops.Accum(g, name+".reduce", partials, 1, combine, ops.ComputeOpts{ComputeBW: 64})
}

// CompletedRequests counts the output rows the run captured.
func (a *Attention) CompletedRequests(sess *graph.Session) int {
	es, _ := sess.Captured(a.Output.Name())
	return element.CountData(es)
}
