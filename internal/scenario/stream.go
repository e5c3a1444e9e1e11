package scenario

import (
	"sync"
	"time"

	"step/internal/harness"
)

// StreamStart announces the shape of a streamed sweep before any row
// lands: the table identity, its final header (spec overrides already
// applied), how many rows the sweep renders, and how many harness
// points it executes (Spec.PointCount — points outnumber rows for
// Compare sweeps, which pivot a group of points into one row, and
// include every cell of a declared verification matrix).
type StreamStart struct {
	TableID string
	Title   string
	Header  []string
	Rows    int
	Points  int
}

// PointResult is one table row landing during a streamed run. Cells
// carries the row exactly as the finished table renders it — the final
// table is assembled from these same strings, so a subscriber that
// collects rows by Index reconstructs the batch artifact byte for
// byte. Coords names the point's position on the spec's axes.
type PointResult struct {
	Index   int               // row position in the final table (0-based)
	Total   int               // number of rows the sweep renders
	Cells   []string          // rendered cells, exactly the final table's row
	Coords  map[string]string // axis name -> value for this row
	Elapsed time.Duration     // wall time of the simulation(s) behind the row
}

// Sink receives streamed sweep events from RunStream. Either callback
// may be nil. Callbacks are serialized (never invoked concurrently),
// but rows arrive in completion order, not index order; Start is
// always first.
type Sink struct {
	Start func(StreamStart)
	Row   func(PointResult)
}

// streamSink serializes Sink callbacks and collects the rendered rows
// that become the final table. Batch assembly consumes the same
// strings the stream delivers, so the streamed rows and the finished
// table cannot diverge.
type streamSink struct {
	mu     sync.Mutex
	user   Sink
	points int
	rows   [][]string
}

func newStreamSink(user Sink, points int) *streamSink {
	return &streamSink{user: user, points: points}
}

// start announces the table shape and sizes the row collection. The
// table must already carry its final header.
func (ss *streamSink) start(t *harness.Table, rows int) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.rows = make([][]string, rows)
	if ss.user.Start != nil {
		ss.user.Start(StreamStart{
			TableID: t.ID,
			Title:   t.Title,
			Header:  append([]string(nil), t.Header...),
			Rows:    rows,
			Points:  ss.points,
		})
	}
}

// row records a landed row and forwards it to the subscriber.
func (ss *streamSink) row(idx int, cells []string, coords map[string]string, elapsed time.Duration) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.rows[idx] = cells
	if ss.user.Row != nil {
		ss.user.Row(PointResult{
			Index:   idx,
			Total:   len(ss.rows),
			Cells:   cells,
			Coords:  coords,
			Elapsed: elapsed,
		})
	}
}

// take hands the collected rows to final table assembly.
func (ss *streamSink) take() [][]string {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.rows
}
