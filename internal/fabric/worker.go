package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"step/internal/harness"
	"step/internal/scenario"
)

// WorkerOptions configures RunWorker.
type WorkerOptions struct {
	// Coordinator is the base URL of the serving coordinator,
	// e.g. "http://host:8080".
	Coordinator string
	// Name labels this worker in GET /work/workers (optional).
	Name string
	// Workers and SimWorkers size the local harness.Suite the leased
	// points run under. Determinism makes both invisible in the result
	// bytes; they only set this worker's parallelism.
	Workers    int
	SimWorkers int
	// Client overrides the HTTP client (tests). Nil uses a client with
	// no overall timeout — long polls and long points both outlive any
	// fixed budget — relying on ctx for shutdown.
	Client *http.Client
	// Logf, when set, receives progress lines (join, lease, errors).
	Logf func(format string, args ...any)
}

// worker is the client-side state of one joined worker.
type worker struct {
	opts     WorkerOptions
	client   *http.Client
	base     string
	id       string
	leaseTTL time.Duration
}

func (w *worker) logf(format string, args ...any) {
	if w.opts.Logf != nil {
		w.opts.Logf(format, args...)
	}
}

// RunWorker joins the coordinator at opts.Coordinator and executes
// leased sweep points until ctx is canceled (which returns nil). Each
// lease is one scenario.RunPoint call; the raw encoded result — or the
// point's error — is posted back. Transport errors back off and retry;
// a 404 on lease (this worker was expired) re-joins transparently.
func RunWorker(ctx context.Context, opts WorkerOptions) error {
	w := &worker{
		opts:   opts,
		client: opts.Client,
		base:   strings.TrimRight(opts.Coordinator, "/"),
	}
	if w.base == "" {
		return fmt.Errorf("fabric: worker needs a coordinator URL")
	}
	if w.client == nil {
		w.client = &http.Client{}
	}
	if err := w.join(ctx); err != nil {
		return err
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil
		}
		ls, status, err := w.poll(ctx)
		switch {
		case ctx.Err() != nil:
			return nil
		case err != nil:
			w.logf("worker %s: lease poll: %v (retrying)", w.id, err)
			if !sleepCtx(ctx, time.Second) {
				return nil
			}
			continue
		case status == http.StatusNotFound:
			// Expired from the fleet (a long partition); start over.
			w.logf("worker %s: expired by coordinator; re-joining", w.id)
			if err := w.join(ctx); err != nil {
				if ctx.Err() != nil {
					return nil
				}
				return err
			}
			continue
		case status == http.StatusNoContent:
			continue // empty poll window; poll again
		case status != http.StatusOK:
			w.logf("worker %s: lease poll: unexpected status %d (retrying)", w.id, status)
			if !sleepCtx(ctx, time.Second) {
				return nil
			}
			continue
		}
		w.run(ctx, ls)
	}
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}

func (w *worker) join(ctx context.Context) error {
	var resp joinResponse
	status, err := w.post(ctx, "/work/join", joinRequest{Name: w.opts.Name}, &resp)
	if err != nil {
		return fmt.Errorf("fabric: join %s: %w", w.base, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("fabric: join %s: status %d", w.base, status)
	}
	w.id = resp.WorkerID
	w.leaseTTL = time.Duration(resp.LeaseTTLMS) * time.Millisecond
	w.logf("worker %s: joined %s (lease ttl %v)", w.id, w.base, w.leaseTTL)
	return nil
}

// poll long-polls for one lease. The coordinator bounds the wait to its
// LongPoll; WaitMS 0 asks for that maximum.
func (w *worker) poll(ctx context.Context) (Lease, int, error) {
	var ls Lease
	status, err := w.post(ctx, "/work/lease", leaseRequest{WorkerID: w.id}, &ls)
	return ls, status, err
}

// run executes one leased point and posts its result, heartbeating
// while the simulation runs.
func (w *worker) run(ctx context.Context, ls Lease) {
	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	go w.heartbeatLoop(hbCtx, ls.ID)

	res := Result{Point: ls.Point}
	raw, err := w.runPoint(ls)
	if err != nil {
		res.Error = err.Error()
		w.logf("worker %s: point %d: %v", w.id, ls.Point, err)
	} else {
		res.Raw = json.RawMessage(raw)
	}
	stopHB()

	status, err := w.post(ctx, "/work/lease/"+ls.ID+"/result", res, nil)
	switch {
	case err != nil:
		if ctx.Err() == nil {
			w.logf("worker %s: post result for point %d: %v", w.id, ls.Point, err)
		}
	case status == http.StatusGone:
		// Lease expired while we computed; the point was re-dispatched
		// and this answer is correctly discarded.
		w.logf("worker %s: point %d finished after lease expiry (discarded)", w.id, ls.Point)
	case status != http.StatusNoContent:
		w.logf("worker %s: post result for point %d: status %d", w.id, ls.Point, status)
	}
}

// runPoint parses the leased spec and runs its point locally.
func (w *worker) runPoint(ls Lease) ([]byte, error) {
	sp, err := scenario.Parse(ls.Spec)
	if err != nil {
		return nil, err
	}
	s := harness.Suite{
		Seed:       ls.Seed,
		Quick:      ls.Quick,
		Workers:    w.opts.Workers,
		SimWorkers: w.opts.SimWorkers,
	}
	return scenario.RunPoint(sp, s, ls.Point)
}

// heartbeatLoop extends the lease at a third of its TTL until canceled.
func (w *worker) heartbeatLoop(ctx context.Context, leaseID string) {
	ttl := w.leaseTTL
	if ttl <= 0 {
		ttl = 15 * time.Second
	}
	tk := time.NewTicker(ttl / 3)
	defer tk.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tk.C:
		}
		status, err := w.post(ctx, "/work/lease/"+leaseID+"/heartbeat", heartbeatRequest{WorkerID: w.id}, nil)
		if err != nil || status == http.StatusGone {
			return
		}
	}
}

// post sends a JSON body and decodes a JSON answer (when out is
// non-nil and the status is 200). Error bodies are bounded and folded
// into the status for the caller to branch on.
func (w *worker) post(ctx context.Context, path string, in, out any) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(io.LimitReader(resp.Body, maxResultBytes)).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("decode %s answer: %w", path, err)
		}
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
	return resp.StatusCode, nil
}
