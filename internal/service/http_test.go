package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

	"step/internal/harness"
	"step/internal/scenario"
	"step/internal/store"
)

const tinyBody = `{
	"id": "http-tiny", "kind": "attention", "models": ["qwen"],
	"scale": 8, "batch": 4, "kv_mean": 128, "regions": 2}`

func newTestServer(t *testing.T, opts Options) (*httptest.Server, *store.Store) {
	t.Helper()
	st, err := store.Open(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(st, opts)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { srv.Close(); svc.Close() })
	return srv, st
}

func decodeJob(t *testing.T, r io.Reader) Job {
	t.Helper()
	var j Job
	if err := json.NewDecoder(r).Decode(&j); err != nil {
		t.Fatal(err)
	}
	return j
}

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b), resp.Header
}

func TestHTTPSubmitStatusTable(t *testing.T) {
	srv, _ := newTestServer(t, Options{Executors: 2, Workers: 2})

	// Submit with a wait budget: the tiny sweep finishes inside it.
	resp, err := http.Post(srv.URL+"/sweeps?seed=7&quick=1&wait=2m", "application/json", strings.NewReader(tinyBody))
	if err != nil {
		t.Fatal(err)
	}
	job := decodeJob(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || job.State != StateDone {
		t.Fatalf("POST: %d %s (%s)", resp.StatusCode, job.State, job.Error)
	}
	if job.PointsDone != job.PointsTotal || job.PointsTotal == 0 {
		t.Fatalf("progress %d/%d", job.PointsDone, job.PointsTotal)
	}

	// Status.
	code, body, _ := get(t, srv.URL+"/sweeps/"+job.ID)
	if code != http.StatusOK || !strings.Contains(body, `"state": "done"`) {
		t.Fatalf("GET status: %d %s", code, body)
	}

	// Table, both formats; bytes must match a direct in-process run.
	sp, err := scenario.Parse([]byte(tinyBody))
	if err != nil {
		t.Fatal(err)
	}
	tb, err := scenario.Run(sp, harness.Suite{Seed: 7, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	code, body, hdr := get(t, srv.URL+"/sweeps/"+job.ID+"/table")
	if code != http.StatusOK || body != tb.String() {
		t.Fatalf("GET table: %d\n%s\nwant\n%s", code, body, tb.String())
	}
	if got := hdr.Get("X-Sweep-State"); got != "done" {
		t.Fatalf("X-Sweep-State %q", got)
	}
	code, body, _ = get(t, srv.URL+"/sweeps/"+job.ID+"/table?format=csv")
	if code != http.StatusOK || body != tb.CSV() {
		t.Fatalf("GET csv: %d %q", code, body)
	}

	// Jobs list includes it.
	code, body, _ = get(t, srv.URL+"/sweeps")
	if code != http.StatusOK || !strings.Contains(body, job.ID) {
		t.Fatalf("GET /sweeps: %d %s", code, body)
	}

	// A repeated POST of the identical spec is served from the store.
	resp, err = http.Post(srv.URL+"/sweeps?seed=7&quick=1", "application/json", strings.NewReader(tinyBody))
	if err != nil {
		t.Fatal(err)
	}
	again := decodeJob(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || again.State != StateCached {
		t.Fatalf("repeat POST: %d %s, want 200 cached", resp.StatusCode, again.State)
	}
	if _, cachedBody, chdr := get(t, srv.URL+"/sweeps/"+again.ID+"/table"); cachedBody != tb.String() || chdr.Get("X-Sweep-State") != "cached" {
		t.Fatal("cached table differs from the computed one")
	}
}

func TestHTTPCannedSpecAndRegistry(t *testing.T) {
	srv, _ := newTestServer(t, Options{Executors: 2, Workers: 2})
	code, body, _ := get(t, srv.URL+"/specs")
	if code != http.StatusOK {
		t.Fatalf("GET /specs: %d", code)
	}
	var specs []specInfo
	if err := json.Unmarshal([]byte(body), &specs); err != nil {
		t.Fatal(err)
	}
	if len(specs) != len(scenario.Builtin()) {
		t.Fatalf("%d specs listed, want %d", len(specs), len(scenario.Builtin()))
	}
	for _, si := range specs {
		if si.ID == "" || si.Kind == "" || len(si.Hash) != 64 {
			t.Fatalf("malformed spec row: %+v", si)
		}
	}

	resp, err := http.Post(srv.URL+"/sweeps?name=gqa-ratio&quick=1&wait=2m", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	job := decodeJob(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || job.State != StateDone || job.SpecID != "gqa-ratio" {
		t.Fatalf("canned POST: %d %+v", resp.StatusCode, job)
	}
}

func TestHTTPErrors(t *testing.T) {
	srv, _ := newTestServer(t, Options{Executors: 1, Workers: 2})
	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	if code, _ := post("/sweeps?name=nope", ""); code != http.StatusNotFound {
		t.Errorf("unknown canned spec: %d", code)
	}
	if code, body := post("/sweeps", `{"id": "x", "kind": "warp-drive", "models": ["qwen"]}`); code != http.StatusBadRequest || !strings.Contains(body, "unknown kind") {
		t.Errorf("invalid spec: %d %s", code, body)
	}
	if code, _ := post("/sweeps", ""); code != http.StatusBadRequest {
		t.Errorf("empty body: %d", code)
	}
	if code, _ := post("/sweeps?seed=banana", tinyBody); code != http.StatusBadRequest {
		t.Errorf("bad seed: %d", code)
	}
	// A bad wait is rejected before anything is submitted: no job runs
	// behind the 400.
	ir, err := os.ReadFile("../../examples/programs/pipeline.json")
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := post("/sweeps?name=gqa-ratio&quick=1&wait=banana", ""); code != http.StatusBadRequest {
		t.Errorf("bad wait on /sweeps: %d", code)
	}
	if code, _ := post("/programs?wait=banana", string(ir)); code != http.StatusBadRequest {
		t.Errorf("bad wait on /programs: %d", code)
	}
	if _, list, _ := get(t, srv.URL+"/sweeps"); strings.Contains(list, `"id"`) {
		t.Errorf("a request rejected for its wait submitted a job: %s", list)
	}
	if code, _, _ := get(t, srv.URL+"/sweeps/job-999"); code != http.StatusNotFound {
		t.Error("unknown job status not 404")
	}
	if code, _, _ := get(t, srv.URL+"/sweeps/job-999/table"); code != http.StatusNotFound {
		t.Error("unknown job table not 404")
	}
	// A job that exists but has no result yet answers 409.
	code, body := post("/sweeps?quick=1", tinyBody)
	if code != http.StatusAccepted {
		t.Fatalf("POST without wait: %d %s", code, body)
	}
	var job Job
	if err := json.Unmarshal([]byte(body), &job); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := get(t, srv.URL+"/sweeps/"+job.ID+"/table?format=mp3&wait=2m"); code != http.StatusBadRequest {
		t.Error("unknown format not 400")
	}
	// A failed job's table is gone for good: 410, not the 409 that
	// tells pollers to keep waiting.
	failing := `{"id": "http-fail", "kind": "attention", "models": ["qwen"],
		"scale": 8, "batch": 4, "kv_mean": 128, "regions": 2, "header": ["a", "b", "c"]}`
	code, body = post("/sweeps?quick=1&wait=2m", failing)
	if code != http.StatusOK || !strings.Contains(body, `"state": "failed"`) {
		t.Fatalf("failing spec: %d %s", code, body)
	}
	var failed Job
	if err := json.Unmarshal([]byte(body), &failed); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := get(t, srv.URL+"/sweeps/"+failed.ID+"/table"); code != http.StatusGone {
		t.Errorf("failed job table: %d, want 410", code)
	}
}

// TestHTTPParallelSubmitsSingleFlight is the service-level race test
// (run under -race in CI): N concurrent POSTs of one spec must produce
// exactly one cache entry, one simulation, and N byte-identical tables.
func TestHTTPParallelSubmitsSingleFlight(t *testing.T) {
	srv, st := newTestServer(t, Options{Executors: 4, Workers: 2})
	const n = 8
	type outcome struct {
		job   Job
		table string
		err   error
	}
	results := make([]outcome, n)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/sweeps?seed=7&quick=1&wait=2m", "application/json", strings.NewReader(tinyBody))
			if err != nil {
				results[i].err = err
				return
			}
			defer resp.Body.Close()
			if err := json.NewDecoder(resp.Body).Decode(&results[i].job); err != nil {
				results[i].err = err
				return
			}
			code, body, _ := get(t, srv.URL+"/sweeps/"+results[i].job.ID+"/table?wait=2m")
			if code != http.StatusOK {
				results[i].err = fmt.Errorf("table: %d %s", code, body)
				return
			}
			results[i].table = body
		}(i)
	}
	wg.Wait()

	var doneCount int
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("request %d: %v", i, r.err)
		}
		switch r.job.State {
		case StateDone:
			doneCount++
		case StateCached:
		default:
			t.Fatalf("request %d finished %s (%s)", i, r.job.State, r.job.Error)
		}
		if r.table != results[0].table {
			t.Fatalf("request %d served different bytes", i)
		}
		if r.job.Key != results[0].job.Key {
			t.Fatalf("request %d got a different cache key", i)
		}
	}
	if doneCount != 1 {
		t.Fatalf("%d jobs simulated, want exactly 1 (single-flight)", doneCount)
	}
	keys, err := st.Keys()
	if err != nil || len(keys) != 1 {
		t.Fatalf("store holds %v (%v), want exactly one entry", keys, err)
	}
}

// TestHTTPSubmitProgram drives the POST /programs round trip: a raw
// program IR (no Go code) is accepted, executed, and served; the
// repeated submission answers from the cache; and the served table is
// byte-identical to a direct scenario.Run of the equivalent spec.
func TestHTTPSubmitProgram(t *testing.T) {
	srv, _ := newTestServer(t, Options{Executors: 2, Workers: 2})
	ir, err := os.ReadFile("../../examples/programs/pipeline.json")
	if err != nil {
		t.Fatal(err)
	}

	post := func() Job {
		resp, err := http.Post(srv.URL+"/programs?wait=60s&depths=2,16", "application/json", bytes.NewReader(ir))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("status %d: %s", resp.StatusCode, b)
		}
		return decodeJob(t, resp.Body)
	}

	first := post()
	if first.State != StateDone {
		t.Fatalf("first submission state = %s, want done", first.State)
	}
	if !strings.HasPrefix(first.SpecID, "program-") {
		t.Fatalf("spec id %q not derived from the program hash", first.SpecID)
	}
	if first.PointsTotal != 2 || first.PointsDone != 2 {
		t.Fatalf("points = %d/%d, want 2/2", first.PointsDone, first.PointsTotal)
	}

	second := post()
	if second.State != StateCached {
		t.Fatalf("repeated submission state = %s, want cached", second.State)
	}
	if second.Key != first.Key {
		t.Fatalf("keys differ: %s vs %s", second.Key, first.Key)
	}

	// Served bytes must equal a direct scenario.Run of the same spec.
	code, body, _ := get(t, srv.URL+"/sweeps/"+second.ID+"/table")
	if code != http.StatusOK {
		t.Fatalf("table status %d: %s", code, body)
	}
	want, err := scenario.Run(scenario.Spec{
		ID:      first.SpecID,
		Title:   "pipeline",
		Kind:    scenario.KindProgram,
		Program: ir,
		Depths:  []int{2, 16},
	}, harness.Suite{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if body != want.String() {
		t.Fatalf("served table differs from direct run:\n%s\nvs\n%s", body, want.String())
	}

	// Quick mode has no effect on programs: a quick submission of the
	// same body must collapse onto the existing cache entry.
	respQ, err := http.Post(srv.URL+"/programs?wait=60s&depths=2,16&quick=1", "application/json", bytes.NewReader(ir))
	if err != nil {
		t.Fatal(err)
	}
	quickJob := decodeJob(t, respQ.Body)
	respQ.Body.Close()
	if quickJob.State != StateCached {
		t.Fatalf("quick submission state = %s, want cached (quick must not split the program key)", quickJob.State)
	}

	// Garbage and oversized bodies fail loudly.
	resp, err := http.Post(srv.URL+"/programs", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage program: status %d", resp.StatusCode)
	}

	// Zero/negative FIFO depths are rejected at the HTTP boundary with
	// the offending value named, not deep inside program compilation.
	resp, err = http.Post(srv.URL+"/programs?depths=0,-4", "application/json", bytes.NewReader(ir))
	if err != nil {
		t.Fatal(err)
	}
	depthsErr, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("depths=0,-4: status %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(string(depthsErr), "0 is not positive") {
		t.Fatalf("depths error does not name the offending value: %s", depthsErr)
	}
}
