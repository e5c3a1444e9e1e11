package hdlsim

import (
	"step/internal/graph"
	"step/internal/ops"
	"step/internal/shape"
)

// TransformedMatmulATB rewrites a STeP-level C = Aᵀ×B map node over large
// tiles into physical-granularity tiles (the hierarchical-tiling graph
// transformation of Fig. 18): both operands are split into phys-wide
// column chunks, bufferized on-chip, re-streamed in the (i, j) output
// order via affine reads, multiplied per physical tile, and re-tiled into
// the original output tile size.
//
// a is a [T]-shaped stream of [K, M] tiles and b a [T]-shaped stream of
// [K, N] tiles, with K == phys (deeper reductions pre-split K upstream).
// The result is a [T]-shaped stream of [M, N] tiles.
func TransformedMatmulATB(g *graph.Graph, a, b *graph.Stream, phys int) *graph.Stream {
	at, okA := a.DType.(graph.TileType)
	bt, okB := b.DType.(graph.TileType)
	if !okA || !okB {
		g.Errf("transform: operands must be tile streams")
		return a
	}
	kA, mDim, okA2 := at.StaticDims()
	kB, nDim, okB2 := bt.StaticDims()
	if !okA2 || !okB2 || kA != kB || kA != phys {
		g.Errf("transform: need static [phys, *] tiles, got %s and %s", at, bt)
		return a
	}
	if mDim%phys != 0 || nDim%phys != 0 {
		g.Errf("transform: tile dims %dx%d not divisible by phys %d", mDim, nDim, phys)
		return a
	}
	mC, nC := mDim/phys, nDim/phys
	tLen, ok := a.Shape.Outer().IsStatic()
	if !ok || a.Shape.Rank() != 1 {
		g.Errf("transform: operand stream must be a static [T] shape, got %s", a.Shape)
		return a
	}

	// Split operands into phys-column chunks; FlatMap emits a flat rank-0
	// chunk stream, which Reshape regroups per tensor so the bufferize
	// boundary is each tensor's chunk list.
	aChunks := ops.FlatMap(g, "t.asplit", a, 0, ops.SplitColsFn(phys),
		[]shape.Dim{shape.Static(mC)})
	aChunks.OverrideShape(shape.OfInts(tLen * mC))
	bChunks := ops.FlatMap(g, "t.bsplit", b, 0, ops.SplitColsFn(phys),
		[]shape.Dim{shape.Static(nC)})
	bChunks.OverrideShape(shape.OfInts(tLen * nC))
	aGrp, aPad := ops.Reshape(g, "t.agrp", aChunks, 0, mC, nil)
	ops.Sink(g, "t.agrp.padsink", aPad)
	bGrp, bPad := ops.Reshape(g, "t.bgrp", bChunks, 0, nC, nil)
	ops.Sink(g, "t.bgrp.padsink", bPad)
	aBufs := ops.Bufferize(g, "t.abuf", aGrp, 1)
	bBufs := ops.Bufferize(g, "t.bbuf", bGrp, 1)

	// Re-stream in output (i, j) order: A chunk i repeats across j
	// (stride (1, 0)); B chunk j cycles within each i (stride (0, 1)).
	aRef := ops.CountSource(g, "t.aref", tLen)
	bRef := ops.CountSource(g, "t.bref", tLen)
	aStride, abShape := [2]int{1, 0}, [2]int{mC, nC}
	bStride := [2]int{0, 1}
	aSeq := ops.Streamify(g, "t.astream", aBufs, aRef, &aStride, &abShape)
	bSeq := ops.Streamify(g, "t.bstream", bBufs, bRef, &bStride, &abShape)

	// Physical matmuls and re-tiling.
	prod := ops.Map2(g, "t.mm", aSeq, bSeq, ops.MatmulATBFn(), ops.ComputeOpts{ComputeBW: 2 * Phys * Phys})
	rowsOut := ops.Accum(g, "t.retilecol", prod, 1, ops.RetileColToFn(graph.StaticTile(phys, nDim)), ops.ComputeOpts{})
	return ops.Accum(g, "t.retilerow", rowsOut, 1, ops.RetileRowToFn(graph.StaticTile(mDim, nDim)), ops.ComputeOpts{})
}
