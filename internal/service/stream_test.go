package service

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"step/internal/harness"
	"step/internal/store"
)

// openStream connects to a job's NDJSON stream and returns a reader of
// decoded events plus a closer.
func openStream(t *testing.T, url string) (*bufio.Scanner, func()) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		resp.Body.Close()
		t.Fatalf("stream content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	return sc, func() { resp.Body.Close() }
}

// nextEvent decodes one stream line; ok is false at EOF.
func nextEvent(t *testing.T, sc *bufio.Scanner) (StreamEvent, bool) {
	t.Helper()
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		return StreamEvent{}, false
	}
	var ev StreamEvent
	if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
		t.Fatalf("bad stream line %q: %v", sc.Text(), err)
	}
	return ev, true
}

// drainStream reads events until the terminal done event (which is
// returned last in the slice). It fails if the stream ends without one.
func drainStream(t *testing.T, sc *bufio.Scanner) []StreamEvent {
	t.Helper()
	var evs []StreamEvent
	for {
		ev, ok := nextEvent(t, sc)
		if !ok {
			t.Fatalf("stream ended without a done event (%d events)", len(evs))
		}
		evs = append(evs, ev)
		if ev.Type == EventDone {
			return evs
		}
	}
}

// reassembleStream builds the finished table from a drained stream:
// exactly one start event, every row index exactly once, notes from
// the terminal event.
func reassembleStream(t *testing.T, evs []StreamEvent) *harness.Table {
	t.Helper()
	var start *StreamEvent
	var rows []StreamEvent
	done := evs[len(evs)-1]
	if done.Type != EventDone {
		t.Fatalf("last event is %q, want done", done.Type)
	}
	for i := range evs[:len(evs)-1] {
		switch ev := &evs[i]; ev.Type {
		case EventStart:
			if start != nil {
				t.Fatal("two start events")
			}
			start = ev
		case EventRow:
			rows = append(rows, *ev)
		case EventProgress:
		default:
			t.Fatalf("unexpected event type %q", ev.Type)
		}
	}
	if start == nil {
		t.Fatal("no start event")
	}
	tb := &harness.Table{ID: start.SpecID, Title: start.Title, Header: start.Header, Notes: done.Notes}
	tb.Rows = make([][]string, start.RowsTotal)
	for _, r := range rows {
		if r.Index < 0 || r.Index >= start.RowsTotal {
			t.Fatalf("row index %d outside [0,%d)", r.Index, start.RowsTotal)
		}
		if tb.Rows[r.Index] != nil {
			t.Fatalf("row %d streamed twice", r.Index)
		}
		tb.Rows[r.Index] = r.Cells
	}
	for i, r := range tb.Rows {
		if r == nil {
			t.Fatalf("row %d never streamed", i)
		}
	}
	return tb
}

// TestHTTPStreamRoundTrip is the service half of the streaming
// acceptance gate: the NDJSON stream of a live sweep, reassembled in
// index order, must be byte-identical to the stored table and CSV, and
// the committed entry must carry a replayable journal.
func TestHTTPStreamRoundTrip(t *testing.T) {
	srv, st := newTestServer(t, Options{Executors: 2, Workers: 4})
	resp, err := http.Post(srv.URL+"/sweeps?name=gqa-ratio&seed=7&quick=1", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	job := decodeJob(t, resp.Body)
	resp.Body.Close()

	sc, closeBody := openStream(t, srv.URL+"/sweeps/"+job.ID+"/stream")
	defer closeBody()
	evs := drainStream(t, sc)
	done := evs[len(evs)-1]
	if done.State != string(StateDone) {
		t.Fatalf("terminal state %q (%s), want done", done.State, done.Error)
	}
	got := reassembleStream(t, evs)

	code, table, _ := get(t, srv.URL+"/sweeps/"+job.ID+"/table")
	if code != http.StatusOK {
		t.Fatalf("table: %d", code)
	}
	if got.String() != table {
		t.Fatalf("reassembled stream diverges from stored table:\ngot:\n%s\nwant:\n%s", got.String(), table)
	}
	code, csv, _ := get(t, srv.URL+"/sweeps/"+job.ID+"/table?format=csv")
	if code != http.StatusOK || got.CSV() != csv {
		t.Fatalf("reassembled CSV diverges from stored CSV (%d)", code)
	}

	// The committed entry carries its journal for replay.
	recs, err := st.ReadRows(job.Key)
	if err != nil {
		t.Fatalf("committed entry has no journal: %v", err)
	}
	if recs[0].Type != "start" || recs[len(recs)-1].Type != "done" {
		t.Fatalf("journal shape: first=%q last=%q", recs[0].Type, recs[len(recs)-1].Type)
	}
}

// TestHTTPStreamTwoSubscribers is the concurrency acceptance test (run
// under -race): two subscribers — one connected before the sweep makes
// progress, one joining late — must observe identical event sequences.
func TestHTTPStreamTwoSubscribers(t *testing.T) {
	srv, _ := newTestServer(t, Options{Executors: 1, Workers: 2})
	body := strings.NewReader(`{
		"id": "two-subs", "kind": "attention", "models": ["qwen", "mixtral"],
		"scale": 8, "batch": 4, "kv_mean": 256, "regions": 2,
		"strategies": ["static-coarse", "dynamic"]}`)
	resp, err := http.Post(srv.URL+"/sweeps?seed=7&quick=1", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	job := decodeJob(t, resp.Body)
	resp.Body.Close()
	if job.ID == "" {
		t.Fatalf("submit rejected: %+v", job)
	}
	url := srv.URL + "/sweeps/" + job.ID + "/stream"

	early, closeEarly := openStream(t, url)
	defer closeEarly()
	// Read one event on the early stream before the late subscriber
	// joins, so the two genuinely start at different points of the run.
	first, ok := nextEvent(t, early)
	if !ok {
		t.Fatal("early stream closed immediately")
	}

	var late []StreamEvent
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sc, closeLate := openStream(t, url)
		defer closeLate()
		late = drainStream(t, sc)
	}()
	evs := append([]StreamEvent{first}, drainStream(t, early)...)
	wg.Wait()

	if len(evs) != len(late) {
		t.Fatalf("early saw %d events, late saw %d", len(evs), len(late))
	}
	for i := range evs {
		a, _ := json.Marshal(evs[i])
		b, _ := json.Marshal(late[i])
		if string(a) != string(b) {
			t.Fatalf("event %d diverges:\nearly: %s\nlate:  %s", i, a, b)
		}
	}
	reassembleStream(t, evs) // both sequences carry the complete table
}

// TestHTTPStreamCancelMidSweep: canceling a running job terminates its
// stream with a canceled event and leaves nothing at the result's
// content address — no entry, no partial journal.
func TestHTTPStreamCancelMidSweep(t *testing.T) {
	srv, st := newTestServer(t, Options{Executors: 1, Workers: 1})
	// A long full-resolution sweep (big KV means, every point sequential):
	// the cancel below must land while points are still running even on a
	// fast, loaded machine.
	slow := slowSpec()
	slow.KVMeans = []float64{2048, 4096, 8192}
	spec, err := json.Marshal(slow)
	if err != nil {
		t.Fatal(err)
	}
	// Full (non-quick) resolution: long enough that the cancel below
	// always lands mid-sweep; only the in-flight point runs to completion.
	resp, err := http.Post(srv.URL+"/sweeps?seed=7", "application/json", strings.NewReader(string(spec)))
	if err != nil {
		t.Fatal(err)
	}
	job := decodeJob(t, resp.Body)
	resp.Body.Close()

	sc, closeBody := openStream(t, srv.URL+"/sweeps/"+job.ID+"/stream")
	defer closeBody()
	// Wait for evidence the sweep is actually running, then cancel.
	if _, ok := nextEvent(t, sc); !ok {
		t.Fatal("stream closed before any event")
	}
	cresp, err := http.Post(srv.URL+"/sweeps/"+job.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()

	var done StreamEvent
	for {
		ev, ok := nextEvent(t, sc)
		if !ok {
			t.Fatal("stream ended without a terminal event")
		}
		if ev.Type == EventDone {
			done = ev
			break
		}
	}
	if done.State != string(StateCanceled) {
		t.Fatalf("terminal state %q, want canceled", done.State)
	}
	keys, err := st.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 0 {
		t.Fatalf("canceled sweep left cache entries: %v", keys)
	}
	ents, err := os.ReadDir(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range ents {
		if strings.HasPrefix(de.Name(), "tmp-") {
			t.Fatalf("canceled sweep left a partial journal: %s", de.Name())
		}
	}
}

// TestHTTPStreamCachedReplay: a job answered from the cache streams the
// full row sequence synthesized from the stored journal — coords
// included — ending in a cached terminal event.
func TestHTTPStreamCachedReplay(t *testing.T) {
	srv, _ := newTestServer(t, Options{Executors: 2, Workers: 2})
	resp, err := http.Post(srv.URL+"/sweeps?name=gqa-ratio&seed=7&quick=1&wait=2m", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	first := decodeJob(t, resp.Body)
	resp.Body.Close()
	if first.State != StateDone {
		t.Fatalf("first run: %s (%s)", first.State, first.Error)
	}
	sc1, close1 := openStream(t, srv.URL+"/sweeps/"+first.ID+"/stream")
	defer close1()
	live := reassembleStream(t, drainStream(t, sc1))

	resp, err = http.Post(srv.URL+"/sweeps?name=gqa-ratio&seed=7&quick=1", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	second := decodeJob(t, resp.Body)
	resp.Body.Close()
	if second.State != StateCached {
		t.Fatalf("second run: %s, want cached", second.State)
	}
	sc2, close2 := openStream(t, srv.URL+"/sweeps/"+second.ID+"/stream")
	defer close2()
	evs := drainStream(t, sc2)
	done := evs[len(evs)-1]
	if done.State != string(StateCached) {
		t.Fatalf("cached terminal state %q", done.State)
	}
	replayed := reassembleStream(t, evs)
	if replayed.String() != live.String() || replayed.CSV() != live.CSV() {
		t.Fatalf("cached replay diverges from live stream:\nlive:\n%s\nreplay:\n%s", live.String(), replayed.String())
	}
	for _, ev := range evs {
		if ev.Type == EventRow && ev.Coords["model"] == "" {
			t.Fatalf("journal replay dropped coords: %+v", ev)
		}
	}
}

// TestHTTPStreamMissingJournalFails: every entry carries its row
// journal, so a cached job whose rows.ndjson has gone missing cannot
// replay its stream — it ends with a failed done event naming the
// journal instead of rebuilding rows from the rendered artifacts.
func TestHTTPStreamMissingJournalFails(t *testing.T) {
	srv, st := newTestServer(t, Options{Executors: 1, Workers: 2})
	post := func() Job {
		t.Helper()
		resp, err := http.Post(srv.URL+"/sweeps?seed=7&quick=1&wait=2m", "application/json", strings.NewReader(tinyBody))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return decodeJob(t, resp.Body)
	}
	if first := post(); first.State != StateDone {
		t.Fatalf("first run: %s (%s), want done", first.State, first.Error)
	}
	second := post()
	if second.State != StateCached {
		t.Fatalf("second run: %s, want cached", second.State)
	}
	if err := os.Remove(filepath.Join(st.Dir(), second.Key, "rows.ndjson")); err != nil {
		t.Fatal(err)
	}
	sc, closeBody := openStream(t, srv.URL+"/sweeps/"+second.ID+"/stream")
	defer closeBody()
	evs := drainStream(t, sc)
	done := evs[len(evs)-1]
	if done.State != string(StateFailed) || !strings.Contains(done.Error, "rows.ndjson") {
		t.Fatalf("replay without a journal: state %q error %q, want failed naming rows.ndjson", done.State, done.Error)
	}
	for _, ev := range evs {
		if ev.Type == EventRow {
			t.Fatalf("rows replayed without a journal: %+v", ev)
		}
	}
}

// TestHTTPStreamUnknownJob: streaming a nonexistent id is a clean 404.
func TestHTTPStreamUnknownJob(t *testing.T) {
	srv, _ := newTestServer(t, Options{Executors: 1, Workers: 1})
	code, body, _ := get(t, srv.URL+"/sweeps/job-999/stream")
	if code != http.StatusNotFound {
		t.Fatalf("GET stream of unknown job: %d %s", code, body)
	}
}

// TestHTTPStreamFinishedJobCompacts: once a successful job's stream has
// closed and its subscribers have detached, the job's buffer holds only
// the done event, and a later subscriber still receives the identical
// event sequence, rows replayed from the committed journal.
func TestHTTPStreamFinishedJobCompacts(t *testing.T) {
	st, err := store.Open(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(st, Options{Executors: 1, Workers: 2})
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { srv.Close(); svc.Close() })
	buffered := func(id string) int {
		svc.mu.Lock()
		j := svc.jobs[id]
		svc.mu.Unlock()
		j.bc.mu.Lock()
		defer j.bc.mu.Unlock()
		return len(j.bc.events)
	}

	resp, err := http.Post(srv.URL+"/sweeps?name=gqa-ratio&seed=7&quick=1", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	job := decodeJob(t, resp.Body)
	resp.Body.Close()
	sc, closeLive := openStream(t, srv.URL+"/sweeps/"+job.ID+"/stream")
	live := drainStream(t, sc)
	if done := live[len(live)-1]; done.State != string(StateDone) {
		t.Fatalf("terminal state %q (%s), want done", done.State, done.Error)
	}
	closeLive()
	deadline := time.Now().Add(5 * time.Second)
	for buffered(job.ID) != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("finished job still buffers %d events after its subscriber left", buffered(job.ID))
		}
		time.Sleep(time.Millisecond)
	}

	sc, closeLate := openStream(t, srv.URL+"/sweeps/"+job.ID+"/stream")
	defer closeLate()
	late := drainStream(t, sc)
	if len(late) != len(live) {
		t.Fatalf("live stream had %d events, replay after compaction %d", len(live), len(late))
	}
	for i := range live {
		a, _ := json.Marshal(live[i])
		b, _ := json.Marshal(late[i])
		if string(a) != string(b) {
			t.Fatalf("event %d diverges after compaction:\nlive:   %s\nreplay: %s", i, a, b)
		}
	}
}
