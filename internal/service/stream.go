package service

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
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
// the sweep's row/point count, which MaxHistory bounds in aggregate.
type broadcast struct {
	mu     sync.Mutex
	cond   *sync.Cond
	events []StreamEvent
	closed bool
}

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
		}
	}
	b.mu.Unlock()
	b.cond.Broadcast()
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
			s.replayStream(write, j, ev)
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

// replayStream synthesizes the start/row sequence of a successful job
// whose broadcast buffered no rows from the entry's journal — exactly
// the original stream, coords included — then writes the terminal
// event. A journal that cannot be read turns the terminal event into a
// failure naming the store's error.
func (s *Service) replayStream(write func(StreamEvent) bool, j *job, terminal StreamEvent) {
	recs, err := s.st.ReadRows(j.key)
	if err != nil {
		terminal.State = string(StateFailed)
		terminal.Error = err.Error()
		write(terminal)
		return
	}
	for _, rec := range recs {
		switch rec.Type {
		case "start":
			if !write(StreamEvent{
				Type: EventStart, JobID: j.id, SpecID: rec.SpecID, Key: j.key,
				Title: rec.Title, Header: rec.Header,
				RowsTotal: rec.Rows, PointsTotal: rec.Points,
			}) {
				return
			}
		case "row":
			if !write(StreamEvent{Type: EventRow, Index: rec.Index, Cells: rec.Cells, Coords: rec.Coords}) {
				return
			}
		case "done":
			if len(terminal.Notes) == 0 {
				terminal.Notes = rec.Notes
			}
		}
	}
	write(terminal)
}
