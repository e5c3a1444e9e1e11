package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"step/internal/scenario"
)

// Handler returns the service's HTTP surface:
//
//	POST /sweeps                submit a spec (raw spec JSON body, or
//	                            ?name=<canned id> with an empty body);
//	                            query: seed (default 7), quick (bool),
//	                            wait (duration to block for completion)
//	POST /programs              submit a program IR (raw IR JSON body):
//	                            the program is wrapped into a
//	                            program-kind spec addressed by its
//	                            canonical hash and runs through the same
//	                            queue, cache, and single-flight paths;
//	                            query as POST /sweeps plus depths
//	                            (comma-separated FIFO-depth axis)
//	GET  /sweeps                list jobs in submission order
//	GET  /sweeps/{id}           job status + per-point progress
//	                            (?wait=<duration> blocks for completion)
//	GET  /sweeps/{id}/stream    live NDJSON event stream: start, then
//	                            row/progress events as points land, then
//	                            a terminal done event (see StreamEvent);
//	                            late subscribers replay then follow
//	GET  /sweeps/{id}/table     result table; ?format=txt|csv
//	                            (?wait=<duration> as above)
//	POST /sweeps/{id}/cancel    cancel a queued or running job
//	GET  /specs                 the canned spec registry with hashes
//
// Errors are JSON objects {"error": "..."} with conventional status
// codes. A table read answers 409 Conflict only while the job is still
// queued/running ("keep waiting"); a failed or canceled job answers
// 410 Gone (the result will never exist), so pollers can tell the two
// apart by status code alone.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /sweeps", s.handleSubmit)
	mux.HandleFunc("POST /programs", s.handleSubmitProgram)
	mux.HandleFunc("GET /sweeps", s.handleList)
	mux.HandleFunc("GET /sweeps/{id}", s.handleStatus)
	mux.HandleFunc("GET /sweeps/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /sweeps/{id}/table", s.handleTable)
	mux.HandleFunc("POST /sweeps/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /specs", s.handleSpecs)
	s.fab.Register(mux) // /work/*: the distributed-sweep worker protocol
	return mux
}

// maxSpecBytes bounds a POST /sweeps body; specs are small JSON files.
const maxSpecBytes = 1 << 20

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// queryUint parses an unsigned query parameter with a default.
func queryUint(r *http.Request, name string, def uint64) (uint64, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	u, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", name, v)
	}
	return u, nil
}

// queryBool parses a boolean query parameter (absent = false).
func queryBool(r *http.Request, name string) (bool, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return false, nil
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		return false, fmt.Errorf("bad %s %q", name, v)
	}
	return b, nil
}

// awaitJob blocks until the job finishes or the wait budget (from the
// ?wait query parameter, capped at 10 minutes) runs out, and reports
// whether it waited. Without a wait parameter it returns immediately.
func (s *Service) awaitJob(r *http.Request, id string) (bool, error) {
	raw := r.URL.Query().Get("wait")
	if raw == "" {
		return false, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil {
		return false, fmt.Errorf("bad wait %q", raw)
	}
	if d <= 0 {
		return false, nil
	}
	if d > 10*time.Minute {
		d = 10 * time.Minute
	}
	ch, ok := s.Finished(id)
	if !ok {
		return false, nil // unknown id surfaces from the caller's lookup
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ch:
	case <-t.C:
	case <-r.Context().Done():
	}
	return true, nil
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	seed, err := queryUint(r, "seed", 7)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	quick, err := queryBool(r, "quick")
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var sp scenario.Spec
	if name := r.URL.Query().Get("name"); name != "" {
		var ok bool
		if sp, ok = scenario.LookupBuiltin(name); !ok {
			httpError(w, http.StatusNotFound, "unknown canned spec %q (GET /specs lists them)", name)
			return
		}
	} else {
		body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
		if err != nil {
			httpError(w, http.StatusBadRequest, "read body: %v", err)
			return
		}
		if len(body) > maxSpecBytes {
			httpError(w, http.StatusRequestEntityTooLarge, "spec exceeds %d bytes", maxSpecBytes)
			return
		}
		if len(body) == 0 {
			httpError(w, http.StatusBadRequest, "need a spec JSON body or ?name=<canned id>")
			return
		}
		if sp, err = scenario.Parse(body); err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	s.submitAndRespond(w, r, sp, seed, quick)
}

// handleSubmitProgram accepts a raw program IR, wraps it into a
// program-kind spec addressed by the IR's canonical hash, and submits
// it through the same queue/cache paths as POST /sweeps.
func (s *Service) handleSubmitProgram(w http.ResponseWriter, r *http.Request) {
	seed, err := queryUint(r, "seed", 7)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	quick, err := queryBool(r, "quick")
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	depths, err := queryInts(r, "depths")
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	if len(body) > maxSpecBytes {
		httpError(w, http.StatusRequestEntityTooLarge, "program exceeds %d bytes", maxSpecBytes)
		return
	}
	if len(body) == 0 {
		httpError(w, http.StatusBadRequest, "need a program IR JSON body")
		return
	}
	// The scenario package memoizes compiled programs by document, so
	// this compile is shared with the canonicalization and execution the
	// submission triggers next.
	prog, err := scenario.CompileProgram(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	hash, err := prog.Hash()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sp := scenario.Spec{
		ID:      "program-" + hash[:12],
		Title:   prog.Name(),
		Kind:    scenario.KindProgram,
		Program: body,
		Depths:  depths,
	}
	s.submitAndRespond(w, r, sp, seed, quick)
}

// queryInts parses a comma-separated positive-integer list query
// parameter, naming the offending element on failure.
func queryInts(r *http.Request, name string) ([]int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(v, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad %s %q", name, v)
		}
		if n <= 0 {
			return nil, fmt.Errorf("bad %s %q: %d is not positive", name, v, n)
		}
		out = append(out, n)
	}
	return out, nil
}

// submitAndRespond enqueues the spec and renders the job (honoring
// ?wait=), shared by the sweep and program submission endpoints.
func (s *Service) submitAndRespond(w http.ResponseWriter, r *http.Request, sp scenario.Spec, seed uint64, quick bool) {
	job, err := s.Submit(sp, seed, quick)
	if err != nil {
		code := http.StatusInternalServerError
		switch {
		case errors.Is(err, ErrQueueFull), errors.Is(err, ErrClosed):
			code = http.StatusServiceUnavailable
		case job.ID == "":
			// Submit rejected the spec before creating a job (validation
			// or canonicalization failure): the client's fault.
			code = http.StatusBadRequest
		}
		httpError(w, code, "%v", err)
		return
	}
	waited, err := s.awaitJob(r, job.ID)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Without a wait, answer from Submit's snapshot (queued -> 202,
	// cached -> 200): re-reading could race a fast job to done.
	if waited {
		refreshed, ok := s.Get(job.ID)
		if !ok {
			// Finished and already pruned from history during the wait;
			// the result (if any) is in the store — a re-POST answers
			// cached.
			httpError(w, http.StatusGone, "job %s finished but its record was pruned; re-submit to read the cached result", job.ID)
			return
		}
		job = refreshed
	}
	code := http.StatusAccepted
	if job.State.Terminal() {
		code = http.StatusOK
	}
	writeJSON(w, code, job)
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.List())
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := s.awaitJob(r, id); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	job, ok := s.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (s *Service) handleTable(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := s.awaitJob(r, id); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	job, ok := s.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	entry, err := s.Table(id)
	if err != nil {
		switch {
		case errors.Is(err, ErrNotReady):
			httpError(w, http.StatusConflict, "job %s is %s; retry later or use ?wait=", id, job.State)
		case job.State == StateFailed || job.State == StateCanceled:
			// Terminal without a result: retrying can never succeed.
			httpError(w, http.StatusGone, "%v", err)
		default:
			httpError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	w.Header().Set("X-Sweep-State", string(job.State))
	w.Header().Set("X-Sweep-Key", job.Key)
	switch format := r.URL.Query().Get("format"); format {
	case "", "txt":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, entry.Table)
	case "csv":
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		io.WriteString(w, entry.CSV)
	default:
		httpError(w, http.StatusBadRequest, "unknown format %q (want txt or csv)", format)
	}
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.Cancel(id) {
		httpError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	job, ok := s.Get(id)
	if !ok {
		httpError(w, http.StatusGone, "job %s was pruned from history", id)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

// specInfo is one row of GET /specs.
type specInfo struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	Kind  string `json:"kind"`
	Hash  string `json:"hash"`
}

func (s *Service) handleSpecs(w http.ResponseWriter, r *http.Request) {
	specs := scenario.Builtin()
	out := make([]specInfo, 0, len(specs))
	for _, sp := range specs {
		h, err := sp.Hash()
		if err != nil {
			httpError(w, http.StatusInternalServerError, "hash %s: %v", sp.ID, err)
			return
		}
		out = append(out, specInfo{ID: sp.ID, Title: sp.Title, Kind: sp.Kind, Hash: h})
	}
	writeJSON(w, http.StatusOK, out)
}
