package ops

import (
	"testing"

	"step/internal/element"
	"step/internal/graph"
	"step/internal/onchip"
	"step/internal/shape"
	"step/internal/tile"
)

func mustTensor(t *testing.T, data *tile.Tile, tr, tc int) OffChipTensor {
	t.Helper()
	ot, err := NewOffChipTensor(data, tr, tc)
	if err != nil {
		t.Fatal(err)
	}
	return ot
}

func TestLinearOffChipLoadFigure2(t *testing.T) {
	// Fig. 2: a 64x256 tensor in 64x64 tiles, read row-major (stride
	// (4,1), shape (1,4)) once per ref element. We shrink to 2x8 with 2x2
	// tiles: grid 1x4, stride (4,1), shape (1,4).
	g := graph.New()
	data := tile.Random(2, 8, 3)
	tensor := mustTensor(t, data, 2, 2)
	ref := CountSource(g, "ref", 2) // D1 = 2 reads
	out := LinearOffChipLoad(g, "load", ref, tensor, [2]int{4, 1}, [2]int{1, 4})
	if out.Shape.String() != "[2,1,4]" {
		t.Fatalf("shape %s", out.Shape)
	}
	cap := Capture(g, "cap", out)
	sess := run(t, g)
	res := sess.Result
	tiles := capturedTiles(t, sess, cap)
	if len(tiles) != 8 {
		t.Fatalf("%d tiles", len(tiles))
	}
	// First tile of each pass is the top-left 2x2 block.
	if tiles[0].At(0, 0) != data.At(0, 0) || tiles[4].At(0, 0) != data.At(0, 0) {
		t.Fatal("tile contents wrong")
	}
	// Stop structure: each pass closes with S2.
	if got := fmtCap(sess, cap); got[len(got)-4:] != "S2,D" {
		t.Fatalf("captured tail %s", got)
	}
	// Traffic: 8 tiles x 8 bytes = 64 bytes, twice over the tensor.
	if res.OffchipTrafficBytes != 8*2*2*2 {
		t.Fatalf("traffic = %d", res.OffchipTrafficBytes)
	}
	// Symbolic equation matches.
	sym, err := g.SymbolicOffchipTrafficBytes().Eval(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sym != res.OffchipTrafficBytes {
		t.Fatalf("symbolic %d != measured %d", sym, res.OffchipTrafficBytes)
	}
}

func TestLinearOffChipLoadRefStops(t *testing.T) {
	// Ref stream with structure: stops shift by 2 dims.
	g := graph.New()
	tensor := mustTensor(t, tile.Random(2, 2, 1), 2, 2)
	ref := Source(g, "ref", shape.OfInts(2, 1), graph.ScalarType{},
		[]element.Element{sc(0), st(1), sc(0), st(1), dn})
	out := LinearOffChipLoad(g, "load", ref, tensor, [2]int{1, 1}, [2]int{1, 1})
	cap := Capture(g, "cap", out)
	sess := run(t, g)
	if got := fmtCap(sess, cap); got != "Tile[2x2],S3,Tile[2x2],S3,D" {
		t.Fatalf("captured %s", got)
	}
}

func TestLinearLoadOutOfGridRejected(t *testing.T) {
	g := graph.New()
	tensor := mustTensor(t, tile.Random(2, 4, 1), 2, 2) // grid 1x2
	ref := CountSource(g, "ref", 1)
	LinearOffChipLoad(g, "load", ref, tensor, [2]int{1, 1}, [2]int{2, 2})
	if err := g.Finalize(); err == nil {
		t.Fatal("expected out-of-grid error")
	}
}

func TestLinearOffChipStore(t *testing.T) {
	g := graph.New()
	a := tile.Filled(1, 2, 5)
	s := Source(g, "src", shape.OfInts(1), graph.StaticTile(1, 2), []element.Element{tileElem(a), dn})
	h := LinearOffChipStore(g, "store", s)
	sess := run(t, g)
	res := sess.Result
	if len(h.Tiles(sess)) != 1 || h.Tiles(sess)[0].At(0, 0) != 5 {
		t.Fatalf("stored %+v", h.Tiles(sess))
	}
	if res.OffchipWriteBytes != 4 {
		t.Fatalf("write bytes = %d", res.OffchipWriteBytes)
	}
}

func TestRandomOffChipLoad(t *testing.T) {
	g := graph.New()
	table := []*tile.Tile{tile.Filled(1, 1, 10), tile.Filled(1, 1, 20), tile.Filled(1, 1, 30)}
	addr := Source(g, "addr", shape.OfInts(3), graph.ScalarType{},
		[]element.Element{sc(2), sc(0), sc(1), dn})
	out := RandomOffChipLoad(g, "rload", addr, table)
	cap := Capture(g, "cap", out)
	sess := run(t, g)
	tiles := capturedTiles(t, sess, cap)
	if tiles[0].At(0, 0) != 30 || tiles[1].At(0, 0) != 10 || tiles[2].At(0, 0) != 20 {
		t.Fatal("random load order wrong")
	}
}

func TestRandomOffChipLoadBadAddress(t *testing.T) {
	g := graph.New()
	table := []*tile.Tile{tile.New(1, 1)}
	addr := Source(g, "addr", shape.OfInts(1), graph.ScalarType{}, []element.Element{sc(5), dn})
	out := RandomOffChipLoad(g, "rload", addr, table)
	Sink(g, "sink", out)
	if _, err := runGraph(g); err == nil {
		t.Fatal("expected address error")
	}
}

func TestRandomOffChipStore(t *testing.T) {
	g := graph.New()
	addr := Source(g, "addr", shape.OfInts(2), graph.ScalarType{}, []element.Element{sc(3), sc(7), dn})
	data := Source(g, "data", shape.OfInts(2), graph.StaticTile(1, 1),
		[]element.Element{tileElem(tile.Filled(1, 1, 1)), tileElem(tile.Filled(1, 1, 2)), dn})
	ack, h := RandomOffChipStore(g, "rstore", addr, data)
	cap := Capture(g, "cap", ack)
	sess := run(t, g)
	if got := fmtCap(sess, cap); got != "true,true,D" {
		t.Fatalf("acks %s", got)
	}
	if tl, ok := h.TileAt(sess, 7); !ok || tl.At(0, 0) != 2 {
		t.Fatal("stored tile wrong")
	}
}

func TestBufferizeStreamifyLinearRoundTrip(t *testing.T) {
	// Fig. 3: bufferize rank 1 of a [2,2] stream, then streamify linearly.
	g := graph.New()
	es := []element.Element{tl(1), tl(2), st(1), tl(3), tl(4), st(1), dn}
	s := Source(g, "src", shape.OfInts(2, 2), graph.StaticTile(1, 1), es)
	bufs := Bufferize(g, "buf", s, 1)
	if bt, ok := bufs.DType.(graph.BufferType); !ok || bt.Shape.String() != "[2]" {
		t.Fatalf("buffer dtype %s", bufs.DType)
	}
	out := StreamifyLinear(g, "str", bufs)
	cap := Capture(g, "cap", out)
	sess := run(t, g)
	res := sess.Result
	if got := fmtCap(sess, cap); got != "Tile[1x1],Tile[1x1],S1,Tile[1x1],Tile[1x1],S1,D" {
		t.Fatalf("captured %s", got)
	}
	tiles := capturedTiles(t, sess, cap)
	if tiles[0].At(0, 0) != 1 || tiles[3].At(0, 0) != 4 {
		t.Fatal("buffer contents wrong")
	}
	// Peak on-chip: at most both buffers live (2 tiles x 2B each = 8B),
	// at least one buffer (4B).
	if res.PeakOnchipBytes < 4 || res.PeakOnchipBytes > 8 {
		t.Fatalf("peak onchip = %d", res.PeakOnchipBytes)
	}
}

func TestStreamifyWithRefRepeatsBuffer(t *testing.T) {
	// Each buffer read Dreg times via a reference stream (c = 1).
	g := graph.New()
	es := []element.Element{tl(1), tl(2), st(1), tl(3), st(1), dn}
	s := Source(g, "src", shape.New(shape.Static(2), shape.NamedRagged("R")), graph.StaticTile(1, 1), es)
	bufs := Bufferize(g, "buf", s, 1)
	// Ref [2, 2]: each buffer read twice.
	ref := Source(g, "ref", shape.OfInts(2, 2), graph.ScalarType{},
		[]element.Element{sc(0), sc(0), st(1), sc(0), sc(0), st(1), dn})
	out := Streamify(g, "str", bufs, ref, nil, nil)
	cap := Capture(g, "cap", out)
	sess := run(t, g)
	// Buffer1 (2 tiles) streamed twice, then buffer2 (1 tile) twice.
	// Each pass closes S1 (buffer rank); ref S1 -> S2.
	if got := fmtCap(sess, cap); got != "Tile[1x1],Tile[1x1],S1,Tile[1x1],Tile[1x1],S2,Tile[1x1],S1,Tile[1x1],S2,D" {
		t.Fatalf("captured %s", got)
	}
}

func TestStreamifyAffine(t *testing.T) {
	// Static buffer of 4 tiles read column-major via stride (1,2), shape (2,2).
	g := graph.New()
	es := []element.Element{tl(0), tl(1), tl(2), tl(3), st(1), dn}
	s := Source(g, "src", shape.OfInts(1, 4), graph.StaticTile(1, 1), es)
	bufs := Bufferize(g, "buf", s, 1)
	ref := Source(g, "ref", shape.OfInts(1), graph.ScalarType{}, []element.Element{sc(0), dn})
	stride := [2]int{1, 2}
	outShape := [2]int{2, 2}
	out := Streamify(g, "str", bufs, ref, &stride, &outShape)
	cap := Capture(g, "cap", out)
	sess := run(t, g)
	tiles := capturedTiles(t, sess, cap)
	want := []float32{0, 2, 1, 3}
	for i, w := range want {
		if tiles[i].At(0, 0) != w {
			t.Fatalf("affine order: tile %d = %f, want %f", i, tiles[i].At(0, 0), w)
		}
	}
}

func TestBufferizeDynamicBufferSizes(t *testing.T) {
	// Ragged inner dim: buffers hold 3 and 1 tiles respectively.
	g := graph.New()
	es := []element.Element{tl(1), tl(2), tl(3), st(1), tl(4), st(1), dn}
	s := Source(g, "src", shape.New(shape.Static(2), shape.NamedRagged("R")), graph.StaticTile(1, 1), es)
	bufs := Bufferize(g, "buf", s, 1)
	cap := Capture(g, "cap", bufs)
	sess := run(t, g)
	var sizes []int
	for _, e := range captured(sess, cap) {
		if e.IsData() {
			sizes = append(sizes, len(e.Value.(element.BufRef).Buf.Values))
		}
	}
	if len(sizes) != 2 || sizes[0] != 3 || sizes[1] != 1 {
		t.Fatalf("buffer sizes %v", sizes)
	}
}

func TestBufferizeHigherStops(t *testing.T) {
	// [2,1,2] bufferize rank 1: S2 closers pass as S1 on the buffer stream.
	g := graph.New()
	es := []element.Element{tl(1), tl(2), st(2), tl(3), tl(4), st(2), dn}
	s := Source(g, "src", shape.OfInts(2, 1, 2), graph.StaticTile(1, 1), es)
	bufs := Bufferize(g, "buf", s, 1)
	cap := Capture(g, "cap", bufs)
	sess := run(t, g)
	got := fmtCap(sess, cap)
	// Two buffers, each followed by S1 (from the input S2 closers).
	if got != "Buf#1(2 values),S1,Buf#2(2 values),S1,D" {
		t.Fatalf("captured %s", got)
	}
}

func TestScratchpadFreedAfterStreamify(t *testing.T) {
	g := graph.New()
	es := []element.Element{tl(1), st(1), tl(2), st(1), dn}
	s := Source(g, "src", shape.OfInts(2, 1), graph.StaticTile(1, 1), es)
	bufs := Bufferize(g, "buf", s, 1)
	out := StreamifyLinear(g, "str", bufs)
	Sink(g, "sink", out)
	sess, err := runGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	res := sess.Result
	// Peak is bounded: buffers are freed after streaming, so both buffers
	// (2 x 2 bytes) is the worst case.
	if res.PeakOnchipBytes > 4 {
		t.Fatalf("peak onchip = %d, buffers not freed", res.PeakOnchipBytes)
	}
}

func TestScratchpadCapacityExceededFails(t *testing.T) {
	// A bufferized working set larger than the configured capacity aborts
	// the run with a diagnosable error (failure injection).
	g := graph.New()
	es := []element.Element{tl(1), tl(2), st(1), dn}
	s := Source(g, "src", shape.OfInts(1, 2), graph.StaticTile(1, 1), es)
	bufs := Bufferize(g, "buf", s, 1)
	out := StreamifyLinear(g, "str", bufs)
	Sink(g, "sink", out)
	spad := onchip.DefaultConfig()
	spad.CapacityBytes = 3 // two 2-byte tiles will not fit
	_, err := runGraph(g, graph.WithOnchip(spad))
	if err == nil {
		t.Fatal("expected capacity error")
	}
}
