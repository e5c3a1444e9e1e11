package service

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"sync"

	"step/internal/store"
)

// Stream event types, in the order a successful stream delivers them:
// one start, interleaved row and progress events as points land, one
// terminal done event.
const (
	EventStart    = "start"
	EventRow      = "row"
	EventProgress = "progress"
	EventDone     = "done"
)

// StreamEvent is one line of the GET /sweeps/{id}/stream NDJSON feed.
// Fields are populated by Type: start carries the job identity and
// table shape; row carries one rendered table row (Index is its final
// position — rows arrive in completion order); progress counts
// completed harness points; done is terminal and carries the job's
// final state ("done", "cached", "failed", or "canceled"), the table
// notes on success, and the error otherwise.
type StreamEvent struct {
	Type string `json:"type"`

	// start
	JobID       string   `json:"job_id,omitempty"`
	SpecID      string   `json:"spec_id,omitempty"`
	Key         string   `json:"key,omitempty"`
	Title       string   `json:"title,omitempty"`
	Header      []string `json:"header,omitempty"`
	RowsTotal   int      `json:"rows_total,omitempty"`
	PointsTotal int      `json:"points_total,omitempty"`

	// row (Index is meaningful only here)
	Index  int               `json:"index"`
	Cells  []string          `json:"cells,omitempty"`
	Coords map[string]string `json:"coords,omitempty"`

	// progress
	PointsDone int `json:"points_done,omitempty"`

	// done
	State     string   `json:"state,omitempty"`
	Notes     []string `json:"notes,omitempty"`
	Error     string   `json:"error,omitempty"`
	ElapsedMS int64    `json:"elapsed_ms,omitempty"`
}

// broadcast is a per-job append-only event buffer: the executor
// publishes, any number of subscribers read by cursor. A subscriber
// that arrives late replays the buffered prefix instantly and then
// follows live — every subscriber observes the same sequence. The
// buffer closes when the terminal done event lands and is bounded by
// the sweep's row/point count. Once a successful job's stream is closed
// and no subscriber is attached, the buffer shrinks to the done event
// plus order, one int32 per earlier event: the committed entry's
// journal holds the rows, and later subscribers replay the same
// sequence from there (replayStream), so a finished job keeps almost no
// history in memory.
type broadcast struct {
	mu     sync.Mutex
	cond   *sync.Cond
	events []StreamEvent
	closed bool
	subs   int // attached subscribers
	// order is the compacted sequence before the done event, nil until
	// compaction: startMark, a row's index, or a progress event's
	// negated PointsDone.
	order []int32
}

// startMark stands for the start event in broadcast.order.
const startMark = math.MinInt32

func newBroadcast() *broadcast {
	b := &broadcast{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// publish appends an event and wakes subscribers. Events after the
// terminal one are dropped (e.g. a progress tick racing cancellation).
func (b *broadcast) publish(ev StreamEvent) {
	b.mu.Lock()
	if !b.closed {
		b.events = append(b.events, ev)
		if ev.Type == EventDone {
			b.closed = true
			b.compact()
		}
	}
	b.mu.Unlock()
	b.cond.Broadcast()
}

// attach registers a subscriber; detach releases it. A subscriber that
// has attached reads a stable buffer until it detaches.
func (b *broadcast) attach() {
	b.mu.Lock()
	b.subs++
	b.mu.Unlock()
}

func (b *broadcast) detach() {
	b.mu.Lock()
	b.subs--
	b.compact()
	b.mu.Unlock()
}

// compact reduces a successful, closed stream with no subscriber
// attached to its done event and order. Callers hold b.mu.
func (b *broadcast) compact() {
	if !b.closed || b.subs > 0 || len(b.events) == 1 {
		return
	}
	done := b.events[len(b.events)-1]
	if done.State != string(StateDone) && done.State != string(StateCached) {
		return
	}
	order := make([]int32, 0, len(b.events)-1)
	for _, ev := range b.events[:len(b.events)-1] {
		switch ev.Type {
		case EventStart:
			order = append(order, startMark)
		case EventRow:
			order = append(order, int32(ev.Index))
		case EventProgress:
			order = append(order, -int32(ev.PointsDone))
		}
	}
	b.events, b.order = []StreamEvent{done}, order
}

// replayOrder returns the compacted order, or nil.
func (b *broadcast) replayOrder() []int32 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.order
}

// next returns the event at cursor i, blocking until it exists. ok is
// false when the stream is closed and drained, or ctx is done; pair
// with wakeOn(ctx) so cancellation interrupts the wait.
func (b *broadcast) next(ctx context.Context, i int) (StreamEvent, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i >= len(b.events) && !b.closed && ctx.Err() == nil {
		b.cond.Wait()
	}
	if i < len(b.events) && ctx.Err() == nil {
		return b.events[i], true
	}
	return StreamEvent{}, false
}

// wakeOn arranges for ctx's cancellation to wake blocked next calls;
// the returned stop releases the arrangement.
func (b *broadcast) wakeOn(ctx context.Context) func() bool {
	return context.AfterFunc(ctx, b.cond.Broadcast)
}

// handleStream serves GET /sweeps/{id}/stream: chunked NDJSON, one
// StreamEvent per line. Subscribers joining mid-run replay every
// already-landed event and then follow live; subscribers to a job that
// finished without broadcasting rows (cached at submit, single-flight
// follower, or done before this server buffered anything) get the row
// sequence synthesized from the stored entry, so every successful
// stream carries the full table regardless of who simulated it. The
// stream always ends with a done event — state done/cached on
// success, failed/canceled otherwise — unless the client disconnects.
func (s *Service) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	write := func(ev StreamEvent) bool {
		if err := enc.Encode(ev); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	ctx := r.Context()
	j.bc.attach()
	defer j.bc.detach()
	stop := j.bc.wakeOn(ctx)
	defer stop()
	sawRow := false
	for i := 0; ; i++ {
		ev, ok := j.bc.next(ctx, i)
		if !ok {
			return // client disconnected
		}
		if ev.Type == EventRow {
			sawRow = true
		}
		if ev.Type == EventDone && !sawRow &&
			(ev.State == string(StateDone) || ev.State == string(StateCached)) {
			s.replayStream(write, j, ev, j.bc.replayOrder())
			return
		}
		if !write(ev) {
			return
		}
		if ev.Type == EventDone {
			return
		}
	}
}

// replayStream synthesizes the stream of a successful job whose
// broadcast holds no rows from the entry's journal — exactly the
// original stream, coords included — then writes the terminal event.
// order, when the broadcast was compacted, is the original sequence,
// progress events included; otherwise the journal's order is used and
// there are no progress events. A journal that cannot be read turns the
// terminal event into a failure naming the store's error.
func (s *Service) replayStream(write func(StreamEvent) bool, j *job, terminal StreamEvent, order []int32) {
	recs, err := s.st.ReadRows(j.key)
	if err != nil {
		terminal.State = string(StateFailed)
		terminal.Error = err.Error()
		write(terminal)
		return
	}
	var start *store.JournalRecord
	rows := make(map[int32]*store.JournalRecord, len(recs))
	journalOrder := order == nil
	for i := range recs {
		rec := &recs[i]
		switch rec.Type {
		case "start":
			start = rec
			if journalOrder {
				order = append(order, startMark)
			}
		case "row":
			rows[int32(rec.Index)] = rec
			if journalOrder {
				order = append(order, int32(rec.Index))
			}
		case "done":
			if len(terminal.Notes) == 0 {
				terminal.Notes = rec.Notes
			}
		}
	}
	for _, o := range order {
		var ev StreamEvent
		switch {
		case o == startMark && start != nil:
			ev = StreamEvent{
				Type: EventStart, JobID: j.id, SpecID: start.SpecID, Key: j.key,
				Title: start.Title, Header: start.Header,
				RowsTotal: start.Rows, PointsTotal: start.Points,
			}
		case o >= 0 && rows[o] != nil:
			ev = StreamEvent{Type: EventRow, Index: rows[o].Index, Cells: rows[o].Cells, Coords: rows[o].Coords}
		case o < 0 && o != startMark:
			ev = StreamEvent{Type: EventProgress, PointsDone: int(-o)}
		default:
			continue
		}
		if !write(ev) {
			return
		}
	}
	write(terminal)
}
