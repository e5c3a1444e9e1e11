package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"step/internal/harness"
	"step/internal/scenario"
)

// shortOptions keeps expiry-driven tests fast.
func shortOptions() Options {
	return Options{
		LeaseTTL:  200 * time.Millisecond,
		WorkerTTL: 500 * time.Millisecond,
		LongPoll:  100 * time.Millisecond,
	}
}

func testWork() Work {
	return Work{Key: "k1", Spec: []byte(`{"id":"x"}`), Seed: 7, Quick: true}
}

// newFabricServer mounts a coordinator on an httptest server.
func newFabricServer(t *testing.T, opts Options) (*Coordinator, *httptest.Server) {
	t.Helper()
	c := New(opts)
	t.Cleanup(c.Close)
	mux := http.NewServeMux()
	c.Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return c, srv
}

// postJSON is the raw-HTTP half of the protocol tests.
func postJSON(t *testing.T, url string, in, out any) int {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func join(t *testing.T, base, name string) string {
	t.Helper()
	var jr joinResponse
	if code := postJSON(t, base+"/work/join", joinRequest{Name: name}, &jr); code != http.StatusOK {
		t.Fatalf("join: status %d", code)
	}
	return jr.WorkerID
}

func leaseOne(t *testing.T, base, workerID string, waitMS int64) (Lease, int) {
	t.Helper()
	var ls Lease
	code := postJSON(t, base+"/work/lease", leaseRequest{WorkerID: workerID, WaitMS: waitMS}, &ls)
	return ls, code
}

func TestDispatchNoWorkers(t *testing.T) {
	c := New(shortOptions())
	defer c.Close()
	if _, err := c.Dispatch(context.Background(), testWork(), 0); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("dispatch with empty fleet: %v, want ErrNoWorkers", err)
	}
}

// TestLeaseResultRoundTrip drives the full protocol over HTTP: join,
// long-poll a lease for a dispatched point, post its result, and watch
// Dispatch return exactly those bytes.
func TestLeaseResultRoundTrip(t *testing.T) {
	c, srv := newFabricServer(t, shortOptions())
	wid := join(t, srv.URL, "rt")

	done := make(chan struct{})
	var raw []byte
	var derr error
	go func() {
		defer close(done)
		raw, derr = c.Dispatch(context.Background(), testWork(), 3)
	}()

	ls, code := leaseOne(t, srv.URL, wid, 2000)
	if code != http.StatusOK {
		t.Fatalf("lease: status %d", code)
	}
	if ls.Point != 3 || ls.Key != "k1" || ls.Seed != 7 || !ls.Quick || string(ls.Spec) != `{"id":"x"}` {
		t.Fatalf("lease carries wrong work unit: %+v", ls)
	}
	if code := postJSON(t, srv.URL+"/work/lease/"+ls.ID+"/result", Result{Point: 3, Raw: json.RawMessage(`{"v":1}`)}, nil); code != http.StatusNoContent {
		t.Fatalf("result: status %d", code)
	}
	<-done
	if derr != nil {
		t.Fatal(derr)
	}
	if string(raw) != `{"v":1}` {
		t.Fatalf("dispatch returned %q", raw)
	}
	// A duplicate commit of the same lease is stale, not a second result.
	if code := postJSON(t, srv.URL+"/work/lease/"+ls.ID+"/result", Result{Point: 3, Raw: json.RawMessage(`{"v":2}`)}, nil); code != http.StatusGone {
		t.Fatalf("duplicate result: status %d, want 410", code)
	}
	st := c.Stats()
	if st.Completed != 1 || st.Stale != 1 {
		t.Fatalf("stats after round trip: %+v", st)
	}
}

// TestLeaseExpiryRedispatch kills a worker mid-point (it leases and
// goes silent): the lease lapses, the point re-dispatches to a live
// worker, and the dead worker's late answer bounces off 410 without a
// double commit.
func TestLeaseExpiryRedispatch(t *testing.T) {
	c, srv := newFabricServer(t, shortOptions())
	dead := join(t, srv.URL, "dead")
	live := join(t, srv.URL, "live")

	done := make(chan struct{})
	var raw []byte
	var derr error
	go func() {
		defer close(done)
		raw, derr = c.Dispatch(context.Background(), testWork(), 0)
	}()

	stale, code := leaseOne(t, srv.URL, dead, 2000)
	if code != http.StatusOK {
		t.Fatalf("first lease: status %d", code)
	}

	// The live worker keeps itself known while the dead lease lapses,
	// then picks up the re-dispatched point.
	var second Lease
	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("re-dispatched lease never surfaced")
		}
		ls, code := leaseOne(t, srv.URL, live, 300)
		if code == http.StatusOK {
			second = ls
			break
		}
		if code != http.StatusNoContent {
			t.Fatalf("live worker lease poll: status %d", code)
		}
	}
	if second.Point != 0 || second.ID == stale.ID {
		t.Fatalf("re-dispatch granted lease %+v (original %s)", second, stale.ID)
	}

	if code := postJSON(t, srv.URL+"/work/lease/"+second.ID+"/result", Result{Point: 0, Raw: json.RawMessage(`{"winner":true}`)}, nil); code != http.StatusNoContent {
		t.Fatalf("second result: status %d", code)
	}
	<-done
	if derr != nil {
		t.Fatal(derr)
	}
	if string(raw) != `{"winner":true}` {
		t.Fatalf("dispatch returned %q, want the re-dispatched worker's result", raw)
	}
	// The dead worker finally answers: stale, discarded.
	if code := postJSON(t, srv.URL+"/work/lease/"+stale.ID+"/result", Result{Point: 0, Raw: json.RawMessage(`{"late":true}`)}, nil); code != http.StatusGone {
		t.Fatalf("late result: status %d, want 410", code)
	}
	st := c.Stats()
	if st.Completed != 1 || st.Redispatched < 1 || st.Stale != 1 {
		t.Fatalf("stats after re-dispatch: %+v", st)
	}
}

// TestHeartbeatExtendsLease: a heartbeating worker holds its lease far
// past the TTL, and its eventual result still commits.
func TestHeartbeatExtendsLease(t *testing.T) {
	c, srv := newFabricServer(t, shortOptions())
	wid := join(t, srv.URL, "slow")

	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Dispatch(context.Background(), testWork(), 0)
	}()
	ls, code := leaseOne(t, srv.URL, wid, 2000)
	if code != http.StatusOK {
		t.Fatalf("lease: status %d", code)
	}
	// Hold well past LeaseTTL (200ms) on heartbeats alone.
	for i := 0; i < 10; i++ {
		time.Sleep(60 * time.Millisecond)
		if code := postJSON(t, srv.URL+"/work/lease/"+ls.ID+"/heartbeat", heartbeatRequest{WorkerID: wid}, nil); code != http.StatusNoContent {
			t.Fatalf("heartbeat %d: status %d", i, code)
		}
	}
	if code := postJSON(t, srv.URL+"/work/lease/"+ls.ID+"/result", Result{Point: 0, Raw: json.RawMessage(`{}`)}, nil); code != http.StatusNoContent {
		t.Fatalf("result after heartbeats: status %d", code)
	}
	<-done
	if st := c.Stats(); st.Completed != 1 || st.Redispatched != 0 {
		t.Fatalf("stats: %+v, want one clean commit", st)
	}
}

// TestDeadFleetFailsOver: when every worker goes silent, both leased
// and queued points resolve to ErrNoWorkers so the sweep finishes on
// local executors instead of hanging.
func TestDeadFleetFailsOver(t *testing.T) {
	c, srv := newFabricServer(t, Options{
		LeaseTTL:  100 * time.Millisecond,
		WorkerTTL: 200 * time.Millisecond,
		LongPoll:  50 * time.Millisecond,
	})
	wid := join(t, srv.URL, "doomed")

	errs := make(chan error, 2)
	for p := 0; p < 2; p++ {
		go func(p int) {
			_, err := c.Dispatch(context.Background(), testWork(), p)
			errs <- err
		}(p)
	}
	// Lease one point, then let the whole fleet (one worker) expire with
	// one point leased and one still queued.
	if _, code := leaseOne(t, srv.URL, wid, 1000); code != http.StatusOK {
		t.Fatalf("lease: status %d", code)
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrNoWorkers) {
				t.Fatalf("dispatch resolved with %v, want ErrNoWorkers", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("dispatch hung on a dead fleet")
		}
	}
}

// TestExpiredWorkerMustRejoin: a worker the janitor expired gets 404 on
// its next poll — the signal RunWorker turns into a transparent
// re-join.
func TestExpiredWorkerMustRejoin(t *testing.T) {
	_, srv := newFabricServer(t, Options{
		LeaseTTL:  100 * time.Millisecond,
		WorkerTTL: 150 * time.Millisecond,
		LongPoll:  50 * time.Millisecond,
	})
	wid := join(t, srv.URL, "lapsed")
	time.Sleep(400 * time.Millisecond)
	if _, code := leaseOne(t, srv.URL, wid, 10); code != http.StatusNotFound {
		t.Fatalf("expired worker poll: status %d, want 404", code)
	}
}

// TestRunWorkerExecutesRealPoints runs the actual worker client
// against a coordinator and checks the shipped bytes match a local
// RunPoint — the fabric leg of the byte-identity chain.
func TestRunWorkerExecutesRealPoints(t *testing.T) {
	sp := scenario.GQARatio()
	cj, err := sp.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	key, err := sp.Hash()
	if err != nil {
		t.Fatal(err)
	}
	c, srv := newFabricServer(t, shortOptions())

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workerDone := make(chan error, 1)
	go func() {
		workerDone <- RunWorker(ctx, WorkerOptions{Coordinator: srv.URL, Name: "real", Logf: t.Logf})
	}()

	w := Work{Key: key, Spec: cj, Seed: 7, Quick: true}
	for point := 0; point < 3; point++ {
		var raw []byte
		deadline := time.Now().Add(10 * time.Second)
		for {
			raw, err = c.Dispatch(ctx, w, point)
			if !errors.Is(err, ErrNoWorkers) {
				break
			}
			// The worker hasn't joined yet; give it a beat.
			if time.Now().After(deadline) {
				t.Fatal("worker never joined")
			}
			time.Sleep(20 * time.Millisecond)
		}
		if err != nil {
			t.Fatalf("dispatch point %d: %v", point, err)
		}
		want, err := scenario.RunPoint(sp, harness.Suite{Seed: 7, Quick: true}, point)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, want) {
			t.Fatalf("point %d: worker shipped %s, local RunPoint produced %s", point, raw, want)
		}
	}
	cancel()
	select {
	case err := <-workerDone:
		if err != nil {
			t.Fatalf("RunWorker: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunWorker did not exit on cancel")
	}
}
