package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/spec"
)

// newTestServer builds a server + httptest frontend; the cleanup closes
// both.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, b
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// swapExecutor installs a test executor and restores the real one on
// cleanup. Tests using it cannot run in parallel with each other.
func swapExecutor(t *testing.T, fn func(ctx context.Context, req *Request, sys *spec.System, key Key, specHash spec.Digest, defaultWorkers int, progress func(states, depth int)) ([]byte, error)) {
	t.Helper()
	old := executeFn
	executeFn = fn
	t.Cleanup(func() { executeFn = old })
}

// TestQueryEndToEnd drives the real pipeline over HTTP: synthesize +
// verify a PQ variant, named and sent inline, then replay each — the
// cached response must be byte-identical to the fresh one,
// distinguished only by X-Cache.
func TestQueryEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	cases := []struct{ name, req string }{
		{"workload", `{"op":"synthesize","workload":"pq-solo","options":{"verify":true}}`},
		{"inline spec", inlineRequest(t, "../../testdata/pqsolo.sys", Options{Verify: true})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp1, body1 := postJSON(t, ts.URL+"/v1/query", tc.req)
			if resp1.StatusCode != http.StatusOK {
				t.Fatalf("fresh query: status %d: %s", resp1.StatusCode, body1)
			}
			if got := resp1.Header.Get("X-Cache"); got != "miss" {
				t.Fatalf("fresh query X-Cache = %q, want miss", got)
			}
			var res ResultJSON
			if err := json.Unmarshal(body1, &res); err != nil {
				t.Fatalf("decode result: %v", err)
			}
			if res.Op != OpSynthesize || res.SpecHash == "" || res.Key == "" {
				t.Fatalf("result header incomplete: %+v", res)
			}
			if len(res.Buses) == 0 {
				t.Fatalf("no buses in result")
			}
			if res.Verify == nil || !res.Verify.Clean {
				t.Fatalf("verify missing or not clean: %+v", res.Verify)
			}
			if res.VHDLSHA256 == "" || res.VHDLBytes == 0 {
				t.Fatalf("vhdl digest missing: %+v", res)
			}

			resp2, body2 := postJSON(t, ts.URL+"/v1/query", tc.req)
			if resp2.StatusCode != http.StatusOK {
				t.Fatalf("cached query: status %d", resp2.StatusCode)
			}
			if got := resp2.Header.Get("X-Cache"); got != "hit" {
				t.Fatalf("cached query X-Cache = %q, want hit", got)
			}
			if !bytes.Equal(body1, body2) {
				t.Fatalf("cached body differs from fresh body:\nfresh:  %s\ncached: %s", body1, body2)
			}
		})
	}
}

// TestQuerySweep exercises the sweep op end to end.
func TestQuerySweep(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, body := postJSON(t, ts.URL+"/v1/query", `{"op":"sweep","workload":"pq","options":{"include_robust":true}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: status %d: %s", resp.StatusCode, body)
	}
	var res ResultJSON
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(res.Points) == 0 || len(res.Pareto) == 0 {
		t.Fatalf("sweep returned %d points, %d pareto", len(res.Points), len(res.Pareto))
	}
}

// TestKeyWorkerInvariance: Workers is a latency knob, not a semantic
// one — requests differing only in Workers must share a cache key, and
// any semantic difference must split it.
func TestKeyWorkerInvariance(t *testing.T) {
	a := &Request{Op: OpSynthesize, Workload: "pq", Options: Options{Workers: 1}}
	b := &Request{Op: OpSynthesize, Workload: "pq", Options: Options{Workers: 7}}
	ka, ha, _, err := a.key()
	if err != nil {
		t.Fatal(err)
	}
	kb, hb, _, err := b.key()
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Fatalf("keys differ across Workers values: %s vs %s", ka, kb)
	}
	if ha != hb {
		t.Fatalf("spec digests differ: %s vs %s", ha, hb)
	}
	c := &Request{Op: OpSynthesize, Workload: "pq", Options: Options{Robust: true}}
	kc, _, _, err := c.key()
	if err != nil {
		t.Fatal(err)
	}
	if kc == ka {
		t.Fatalf("robust option did not change the key")
	}
	d := &Request{Op: OpVerify, Workload: "pq"}
	kd, _, _, err := d.key()
	if err != nil {
		t.Fatal(err)
	}
	if kd == ka {
		t.Fatalf("op did not change the key")
	}
}

// TestInflightDedup is satellite 4's server half: two identical
// concurrent requests must share one job and produce two identical
// responses. The test executor blocks until released, so the
// interleaving is exact: request A starts the job, request B joins it.
func TestInflightDedup(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	swapExecutor(t, func(ctx context.Context, req *Request, sys *spec.System, key Key, specHash spec.Digest, defaultWorkers int, progress func(states, depth int)) ([]byte, error) {
		started <- struct{}{}
		select {
		case <-release:
			return []byte(`{"ok":true}` + "\n"), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	s, ts := newTestServer(t, Config{Workers: 1})

	req := `{"op":"synthesize","workload":"pq"}`
	type reply struct {
		status int
		cache  string
		body   []byte
	}
	replies := make(chan reply, 2)
	var wg sync.WaitGroup
	post := func() {
		defer wg.Done()
		resp, body := postJSON(t, ts.URL+"/v1/query", req)
		replies <- reply{resp.StatusCode, resp.Header.Get("X-Cache"), body}
	}
	wg.Add(1)
	go post()
	<-started // job is running; a second identical request must dedup
	wg.Add(1)
	go post()
	waitFor(t, "dedup join", func() bool { return s.dedups.Load() == 1 })
	close(release)
	wg.Wait()
	close(replies)

	var dispositions []string
	var bodies [][]byte
	for r := range replies {
		if r.status != http.StatusOK {
			t.Fatalf("status %d: %s", r.status, r.body)
		}
		dispositions = append(dispositions, r.cache)
		bodies = append(bodies, r.body)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("deduped responses differ: %s vs %s", bodies[0], bodies[1])
	}
	got := strings.Join(dispositions, "+")
	if got != "miss+dedup" && got != "dedup+miss" {
		t.Fatalf("dispositions = %s, want one miss and one dedup", got)
	}
	if n := s.jobsStarted.Load(); n != 1 {
		t.Fatalf("jobs started = %d, want 1 (single shared job)", n)
	}
	if n := s.jobsDone.Load(); n != 1 {
		t.Fatalf("jobs done = %d, want 1", n)
	}
}

// TestCancelOnDisconnect: a client abandoning a query drops its
// reference; with no other waiter the job's context cancels, the run
// unwinds, and the cancel latency lands in the metrics.
func TestCancelOnDisconnect(t *testing.T) {
	started := make(chan struct{}, 8)
	swapExecutor(t, func(ctx context.Context, req *Request, sys *spec.System, key Key, specHash spec.Digest, defaultWorkers int, progress func(states, depth int)) ([]byte, error) {
		started <- struct{}{}
		<-ctx.Done() // a canceled engine run returns ctx.Err(), never a body
		return nil, ctx.Err()
	})
	s, ts := newTestServer(t, Config{Workers: 1})

	ctx, cancel := context.WithCancel(context.Background())
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/query",
		strings.NewReader(`{"op":"synthesize","workload":"pq"}`))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(hreq)
		if resp != nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	<-started
	cancel() // client hangs up mid-run
	if err := <-errc; err == nil {
		t.Fatalf("abandoned request returned without error")
	}
	waitFor(t, "job canceled", func() bool { return s.jobsCanceled.Load() == 1 })
	if n := s.clientsGone.Load(); n != 1 {
		t.Fatalf("clients gone = %d, want 1", n)
	}
	if s.cancelNsSum.Load() <= 0 {
		t.Fatalf("cancel latency not recorded")
	}
	s.mu.Lock()
	inflight := len(s.inflight)
	s.mu.Unlock()
	if inflight != 0 {
		t.Fatalf("canceled job still in inflight table")
	}
}

// TestDedupSurvivesOneWaiterLeaving: when two clients share a job and
// one hangs up, the job must keep running for the other.
func TestDedupSurvivesOneWaiterLeaving(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	swapExecutor(t, func(ctx context.Context, req *Request, sys *spec.System, key Key, specHash spec.Digest, defaultWorkers int, progress func(states, depth int)) ([]byte, error) {
		started <- struct{}{}
		select {
		case <-release:
			return []byte(`{"ok":true}` + "\n"), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	s, ts := newTestServer(t, Config{Workers: 1})
	body := `{"op":"synthesize","workload":"pq"}`

	// First client starts the job.
	ctx1, cancel1 := context.WithCancel(context.Background())
	hreq1, _ := http.NewRequestWithContext(ctx1, http.MethodPost, ts.URL+"/v1/query", strings.NewReader(body))
	hreq1.Header.Set("Content-Type", "application/json")
	gone1 := make(chan struct{})
	go func() {
		resp, _ := http.DefaultClient.Do(hreq1)
		if resp != nil {
			resp.Body.Close()
		}
		close(gone1)
	}()
	<-started

	// Second client joins it, then the first leaves.
	type result struct {
		status int
		body   []byte
	}
	res2 := make(chan result, 1)
	go func() {
		resp, b := postJSON(t, ts.URL+"/v1/query", body)
		res2 <- result{resp.StatusCode, b}
	}()
	waitFor(t, "second waiter joined", func() bool { return s.dedups.Load() == 1 })
	cancel1()
	<-gone1
	waitFor(t, "first waiter unref'd", func() bool { return s.clientsGone.Load() == 1 })

	// The job must still be live; release it and the survivor gets the
	// result.
	close(release)
	r := <-res2
	if r.status != http.StatusOK {
		t.Fatalf("surviving waiter got status %d: %s", r.status, r.body)
	}
	if s.jobsCanceled.Load() != 0 {
		t.Fatalf("job canceled despite a remaining waiter")
	}
}

// TestQueueFull: a bounded queue rejects with 503 instead of buffering
// without limit.
func TestQueueFull(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	swapExecutor(t, func(ctx context.Context, req *Request, sys *spec.System, key Key, specHash spec.Digest, defaultWorkers int, progress func(states, depth int)) ([]byte, error) {
		started <- struct{}{}
		select {
		case <-release:
			return []byte("{}\n"), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	// Distinct requests so none dedup: one runs, one queues, the third
	// must bounce. Each stage is confirmed before the next request goes
	// out, so the 503 is deterministic, not a race.
	reqN := func(n int) string {
		return fmt.Sprintf(`{"op":"synthesize","workload":"pq","options":{"verify_states":%d}}`, 1000+n)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		postJSON(t, ts.URL+"/v1/query", reqN(0))
	}()
	<-started // worker busy with reqN(0)
	go func() {
		defer wg.Done()
		postJSON(t, ts.URL+"/v1/query", reqN(1))
	}()
	waitFor(t, "second job queued", func() bool { return len(s.queue) == 1 })
	resp, body := postJSON(t, ts.URL+"/v1/query", reqN(2))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (%s)", resp.StatusCode, body)
	}
	close(release)
	wg.Wait()
}

// TestAsyncJobLifecycle drives the async surface: submit, poll status,
// stream events, fetch the result, then replay as a cache hit.
func TestAsyncJobLifecycle(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	swapExecutor(t, func(ctx context.Context, req *Request, sys *spec.System, key Key, specHash spec.Digest, defaultWorkers int, progress func(states, depth int)) ([]byte, error) {
		started <- struct{}{}
		progress(50000, 40) // past the throttle thresholds → published
		select {
		case <-release:
			return []byte(`{"done":true}` + "\n"), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	_, ts := newTestServer(t, Config{Workers: 1})

	resp, body := postJSON(t, ts.URL+"/v1/jobs", `{"op":"synthesize","workload":"pq"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var sub struct {
		ID     string `json:"id"`
		Key    string `json:"key"`
		Status string `json:"status"`
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.ID == "" || sub.Key == "" || sub.Status != "miss" {
		t.Fatalf("submit reply incomplete: %+v", sub)
	}
	<-started

	var st struct {
		Status string          `json:"status"`
		Result json.RawMessage `json:"result"`
	}
	getStatus := func() {
		resp, body := func() (*http.Response, []byte) {
			r, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Body.Close()
			b, _ := io.ReadAll(r.Body)
			return r, b
		}()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job get: status %d", resp.StatusCode)
		}
		st = struct {
			Status string          `json:"status"`
			Result json.RawMessage `json:"result"`
		}{}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
	}
	getStatus()
	if st.Status != "running" {
		t.Fatalf("status = %q, want running", st.Status)
	}
	close(release)
	waitFor(t, "job done", func() bool { getStatus(); return st.Status == "done" })
	if string(st.Result) != `{"done":true}` {
		t.Fatalf("result = %s", st.Result)
	}

	// Event stream replays the full history after completion.
	eresp, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	events, _ := io.ReadAll(eresp.Body)
	for _, kind := range []string{`"queued"`, `"started"`, `"progress"`, `"done"`} {
		if !strings.Contains(string(events), kind) {
			t.Fatalf("event stream missing %s:\n%s", kind, events)
		}
	}
	if !strings.Contains(string(events), `"states":50000`) {
		t.Fatalf("progress event lost its state count:\n%s", events)
	}

	// Same request again: now a synchronous cache hit.
	resp2, body2 := postJSON(t, ts.URL+"/v1/jobs", `{"op":"synthesize","workload":"pq"}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("replay: status %d", resp2.StatusCode)
	}
	if !strings.Contains(string(body2), `"status":"hit"`) {
		t.Fatalf("replay not a hit: %s", body2)
	}
}

// TestExplicitJobCancel: DELETE on a sole-waiter job cancels it.
func TestExplicitJobCancel(t *testing.T) {
	started := make(chan struct{}, 8)
	swapExecutor(t, func(ctx context.Context, req *Request, sys *spec.System, key Key, specHash spec.Digest, defaultWorkers int, progress func(states, depth int)) ([]byte, error) {
		started <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	})
	s, ts := newTestServer(t, Config{Workers: 1})

	resp, body := postJSON(t, ts.URL+"/v1/jobs", `{"op":"synthesize","workload":"pq"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", resp.StatusCode, body)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	<-started

	dreq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+sub.ID, nil)
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	db, _ := io.ReadAll(dresp.Body)
	dresp.Body.Close()
	if !strings.Contains(string(db), `"canceling":true`) {
		t.Fatalf("cancel reply: %s", db)
	}
	waitFor(t, "job canceled", func() bool { return s.jobsCanceled.Load() == 1 })
}

// TestBadRequests covers the rejection surface.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name, body string
	}{
		{"unknown op", `{"op":"transmogrify","workload":"pq"}`},
		{"no spec or workload", `{"op":"synthesize"}`},
		{"both spec and workload", `{"op":"synthesize","workload":"pq","spec":"system S is end S;"}`},
		{"unknown field", `{"op":"synthesize","workload":"pq","bogus":1}`},
		{"bad protocol", `{"op":"synthesize","workload":"pq","options":{"protocol":"quarter"}}`},
		{"unknown workload", `{"op":"synthesize","workload":"hypercube"}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/v1/query", tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (%s)", resp.StatusCode, body)
			}
		})
	}
}

// TestMetricsAndHealthz sanity-checks the observation endpoints.
func TestMetricsAndHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	postJSON(t, ts.URL+"/v1/query", `{"op":"synthesize","workload":"pq"}`)
	postJSON(t, ts.URL+"/v1/query", `{"op":"synthesize","workload":"pq"}`)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, line := range []string{
		"ifsynd_requests_total 2",
		"ifsynd_cache_hits_total 1",
		"ifsynd_jobs_done_total 1",
		"ifsynd_workers 2",
	} {
		if !strings.Contains(string(b), line) {
			t.Fatalf("metrics missing %q:\n%s", line, b)
		}
	}

	healthy(t, ts.URL)
}

// TestCacheLRU exercises the store's bounds directly.
func TestCacheLRU(t *testing.T) {
	c := newResultCache(2, 1<<20, nil)
	k := func(i byte) Key { return Key{i} }
	c.put(k(1), []byte("one"))
	c.put(k(2), []byte("two"))
	if _, ok := c.get(k(1)); !ok {
		t.Fatal("k1 missing")
	}
	c.put(k(3), []byte("three")) // evicts k2 (LRU), not k1 (just touched)
	if _, ok := c.get(k(2)); ok {
		t.Fatal("k2 should have been evicted")
	}
	if _, ok := c.get(k(1)); !ok {
		t.Fatal("k1 evicted out of LRU order")
	}
	entries, _, _, _, evictions := c.stats()
	if entries != 2 || evictions != 1 {
		t.Fatalf("entries=%d evictions=%d, want 2/1", entries, evictions)
	}

	// Byte bound: an oversized body is skipped, not cached.
	small := newResultCache(16, 8, nil)
	small.put(k(9), []byte("far too large for the bound"))
	if _, ok := small.get(k(9)); ok {
		t.Fatal("oversized body should not be cached")
	}
}
