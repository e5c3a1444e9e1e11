package ops

import (
	"testing"

	"step/internal/element"
	"step/internal/graph"
	"step/internal/shape"
	"step/internal/tile"
)

// TestMemoryPlacementSwap exercises the §4.1 scheduling knob: the same
// computation with weights streamed from off-chip per use versus weights
// bufferized on-chip once and re-streamed. Results are identical; traffic
// and on-chip requirements trade places.
func TestMemoryPlacementSwap(t *testing.T) {
	const n = 4 // weight reused n times
	w := tile.Random(8, 8, 1)
	xs := make([]*tile.Tile, n)
	for i := range xs {
		xs[i] = tile.Random(8, 8, uint64(i)+2)
	}

	build := func(onchipResident bool) (*CaptureOp, *graph.Graph) {
		g := graph.New()
		var xe []element.Element
		for _, x := range xs {
			xe = append(xe, element.DataOf(element.TileVal{T: x}))
		}
		xe = append(xe, element.DoneElem)
		xStream := ops2Source(g, "x", shape.OfInts(n), graph.StaticTile(8, 8), xe)

		var wStream *graph.Stream
		if onchipResident {
			// Load the weight once, bufferize it, and re-stream per use.
			tensor, err := NewOffChipTensor(w, 8, 8)
			if err != nil {
				t.Fatal(err)
			}
			loaded := LinearOffChipLoadStatic(g, "wload", 1, tensor, [2]int{1, 1}, [2]int{1, 1})
			wflat := Flatten(g, "wflat", loaded, 0, 2)
			wgrp := Promote(g, "wgrp", wflat)
			bufs := Bufferize(g, "wbuf", wgrp, 1)
			ref := CountSource(g, "wref", 1)
			// One buffer, re-read n times linearly.
			refGrouped := RepeatElems(g, "wrefrep", ref, n)
			wRead := Streamify(g, "wstream", bufs, refGrouped, nil, nil)
			wStream = Flatten(g, "wreadflat", wRead, 0, 2)
		} else {
			// Reload the weight from off-chip for every x tile.
			tensor, err := NewOffChipTensor(w, 8, 8)
			if err != nil {
				t.Fatal(err)
			}
			loaded := LinearOffChipLoadStatic(g, "wload", n, tensor, [2]int{1, 1}, [2]int{1, 1})
			wStream = Flatten(g, "wflat", loaded, 0, 2)
		}
		prod := Map2(g, "mm", xStream, wStream, MatmulFn(), ComputeOpts{ComputeBW: 64})
		return Capture(g, "cap", prod), g
	}

	capOff, gOff := build(false)
	sessOff, err := runGraph(gOff)
	if err != nil {
		t.Fatal(err)
	}
	capOn, gOn := build(true)
	sessOn, err := runGraph(gOn)
	if err != nil {
		t.Fatal(err)
	}
	resOff, resOn := sessOff.Result, sessOn.Result

	// Identical results.
	offTiles := capturedTiles(t, sessOff, capOff)
	onTiles := capturedTiles(t, sessOn, capOn)
	if len(offTiles) != n || len(onTiles) != n {
		t.Fatalf("tile counts %d / %d", len(offTiles), len(onTiles))
	}
	for i := range offTiles {
		want := tile.MatMul(xs[i], w)
		if !tile.Equal(offTiles[i], want, 1e-3) || !tile.Equal(onTiles[i], want, 1e-3) {
			t.Fatalf("tile %d mismatch", i)
		}
	}
	// Off-chip variant moves the weight n times; on-chip variant once.
	wBytes := w.Bytes()
	if resOff.OffchipTrafficBytes != int64(n)*wBytes {
		t.Fatalf("off-chip variant traffic %d, want %d", resOff.OffchipTrafficBytes, int64(n)*wBytes)
	}
	if resOn.OffchipTrafficBytes != wBytes {
		t.Fatalf("on-chip variant traffic %d, want %d", resOn.OffchipTrafficBytes, wBytes)
	}
	// The on-chip variant pays scratchpad residency instead.
	if resOn.PeakOnchipBytes < wBytes {
		t.Fatalf("on-chip variant peak %d below weight size %d", resOn.PeakOnchipBytes, wBytes)
	}
	if resOff.PeakOnchipBytes != 0 {
		t.Fatalf("off-chip variant should not allocate scratchpad, got %d", resOff.PeakOnchipBytes)
	}
}

// ops2Source mirrors Source; named to avoid clashing with test helpers.
func ops2Source(g *graph.Graph, name string, sh shape.Shape, dt graph.DType, es []element.Element) *graph.Stream {
	return Source(g, name, sh, dt, es)
}
