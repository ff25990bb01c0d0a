package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/par"
)

// Config parameterizes a Server.
type Config struct {
	// Workers is the number of jobs executed concurrently (0 =
	// GOMAXPROCS). Running jobs share GOMAXPROCS CPUs (par.Share): each
	// holds one, and each BFS layer of its checker borrows the CPUs idle
	// when the layer starts, so a lone job's checker uses them all and
	// a full pool runs one worker per job. A request's non-zero workers
	// option caps its loops.
	Workers int
	// QueueDepth bounds queued-but-not-running jobs (0 = 256); past
	// it, submissions are rejected with 503 rather than buffered
	// without bound.
	QueueDepth int
	// CacheEntries and CacheBytes bound the result cache's LRU store
	// (0 = 1024 entries / 64 MiB).
	CacheEntries int
	CacheBytes   int64
	// CacheDir, when set, persists completed result bodies to disk
	// (one checksummed file per content-addressed key), so repeat
	// queries — a re-verify of an already-checked spec in particular —
	// are served across daemon restarts without recomputation. "" keeps
	// the cache memory-only.
	CacheDir string
}

// Server is the synthesis service: a bounded job pool, a
// content-addressed result cache, and the HTTP surface over them.
type Server struct {
	cfg   Config
	cache *resultCache
	// cpus is the CPU share the running jobs divide; job contexts
	// carry it to their loops.
	cpus *par.Share

	baseCtx    context.Context
	baseCancel context.CancelFunc
	queue      chan *job
	wg         sync.WaitGroup

	mu       sync.Mutex
	closed   bool
	inflight map[Key]*job
	jobs     map[string]*job
	jobOrder []string // completed-job retention ring (oldest first)

	nextID atomic.Int64

	// Metrics. Cache hit/miss/eviction counters live in the cache.
	requests     atomic.Int64
	dedups       atomic.Int64
	queueRejects atomic.Int64
	jobsStarted  atomic.Int64
	jobsDone     atomic.Int64
	jobsCanceled atomic.Int64
	jobsFailed   atomic.Int64
	cancelNsSum  atomic.Int64
	cancelNsMax  atomic.Int64
	running      atomic.Int64
	clientsGone  atomic.Int64
}

const maxRetainedJobs = 1024

// New starts a server: cfg.Workers goroutines draining the job queue.
// Callers must Close it to stop them. An unusable CacheDir is the only
// construction failure.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	var disk *diskCache
	if cfg.CacheDir != "" {
		var err error
		if disk, err = newDiskCache(cfg.CacheDir); err != nil {
			return nil, err
		}
	}
	cpus := par.NewShare(runtime.GOMAXPROCS(0))
	ctx, cancel := context.WithCancel(par.WithShare(context.Background(), cpus))
	s := &Server{
		cfg:        cfg,
		cache:      newResultCache(cfg.CacheEntries, cfg.CacheBytes, disk),
		cpus:       cpus,
		baseCtx:    ctx,
		baseCancel: cancel,
		queue:      make(chan *job, cfg.QueueDepth),
		inflight:   make(map[Key]*job),
		jobs:       make(map[string]*job),
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// Close cancels every in-flight job and stops the workers. Safe to
// call once; the server must not be used after.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.baseCancel()
	close(s.queue)
	s.wg.Wait()
}

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.run(j)
	}
}

// run executes one job and publishes its completion. The job leaves
// the inflight table before its done channel closes, so a request
// arriving after completion starts fresh (and hits the cache).
func (s *Server) run(j *job) {
	s.running.Add(1)
	s.jobsStarted.Add(1)
	defer s.running.Add(-1)

	var body []byte
	var err error
	if err = j.ctx.Err(); err == nil {
		j.publish("started", "", 0, 0)
		body, err = s.exec(j)
	}
	j.req, j.sys = nil, nil
	ended := time.Now()
	if lat := j.cancelLatency(ended); lat > 0 {
		s.cancelNsSum.Add(lat.Nanoseconds())
		for {
			old := s.cancelNsMax.Load()
			if lat.Nanoseconds() <= old || s.cancelNsMax.CompareAndSwap(old, lat.Nanoseconds()) {
				break
			}
		}
	}

	s.mu.Lock()
	if s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	s.mu.Unlock()

	switch {
	case err == nil:
		j.body = body
		s.cache.put(j.key, j.digest, body)
		s.jobsDone.Add(1)
		j.publish("done", "", 0, 0)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.err = err
		s.jobsCanceled.Add(1)
		j.publish("canceled", err.Error(), 0, 0)
	default:
		j.err = err
		s.jobsFailed.Add(1)
		j.publish("error", err.Error(), 0, 0)
	}
	close(j.done)
	j.cancel()
}

// exec runs the job's request through executeFn, on a CPU of the
// server's share. A panic on the job path, raised on this goroutine or
// re-raised here by a par loop whose worker panicked, is logged with
// its stack and becomes the job's error, so one request cannot take
// the daemon down.
func (s *Server) exec(j *job) (body []byte, err error) {
	leave := s.cpus.Join()
	defer leave()
	defer func() {
		if p := recover(); p != nil {
			log.Printf("serve: job %s panicked: %v\n%s", j.id, p, debug.Stack())
			if wp, ok := p.(*par.WorkerPanic); ok {
				p = wp.Value
			}
			body, err = nil, fmt.Errorf("job %s panicked: %v", j.id, p)
		}
	}()
	return executeFn(j.ctx, j.req, j.sys, j.key, j.specHash, j.progressHook())
}

// errBusy reports a full queue; mapped to 503.
var errBusy = errors.New("job queue full")

// submitStatus classifies a submission.
type submitStatus string

const (
	statusHit   submitStatus = "hit"
	statusMiss  submitStatus = "miss"
	statusDedup submitStatus = "dedup"
)

// submit routes one request: cache hit (body returned directly),
// in-flight dedup (joins the existing job with a new reference), or a
// fresh job enqueued on the pool. A request whose digest the cache
// knows is a hit before its spec is resolved, so a repeat skips the
// parse and spec.Hash.
func (s *Server) submit(req *Request) (*job, []byte, submitStatus, error) {
	d := req.digest()
	if body, ok := s.cache.getDigest(d); ok {
		return nil, body, statusHit, nil
	}
	key, specHash, sys, err := req.key()
	if err != nil {
		return nil, nil, "", err
	}
	if body, ok := s.cache.get(key, d); ok {
		return nil, body, statusHit, nil
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, nil, "", errors.New("server shutting down")
	}
	if j := s.inflight[key]; j != nil && j.ref() {
		s.mu.Unlock()
		s.dedups.Add(1)
		return j, nil, statusDedup, nil
	}
	id := fmt.Sprintf("j%06d", s.nextID.Add(1))
	j := newJob(id, key, d, req, s.baseCtx)
	j.specHash = specHash
	j.sys = sys
	s.inflight[key] = j
	s.retainJobLocked(j)
	s.mu.Unlock()

	select {
	case s.queue <- j:
		j.publish("queued", "", 0, 0)
		return j, nil, statusMiss, nil
	default:
		s.queueRejects.Add(1)
		s.mu.Lock()
		if s.inflight[key] == j {
			delete(s.inflight, key)
		}
		s.mu.Unlock()
		j.req, j.sys = nil, nil
		j.err = errBusy
		close(j.done)
		j.cancel()
		return nil, nil, "", errBusy
	}
}

// retainJobLocked registers the job for /v1/jobs lookup, evicting the
// oldest completed entries past the retention bound. Callers hold s.mu.
func (s *Server) retainJobLocked(j *job) {
	s.jobs[j.id] = j
	s.jobOrder = append(s.jobOrder, j.id)
	for len(s.jobOrder) > maxRetainedJobs {
		old := s.jobs[s.jobOrder[0]]
		if old != nil {
			select {
			case <-old.done:
			default:
				// Oldest job still live (saturated pool): retain it and
				// accept a transiently larger table.
				return
			}
		}
		delete(s.jobs, s.jobOrder[0])
		s.jobOrder = s.jobOrder[1:]
	}
}

func (s *Server) jobByID(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// Handler returns the HTTP surface:
//
//	POST   /v1/query            run (or replay) a request synchronously
//	POST   /v1/jobs             submit asynchronously → job id
//	GET    /v1/jobs/{id}        job status + result when done
//	GET    /v1/jobs/{id}/events SSE stream of job progress
//	DELETE /v1/jobs/{id}        drop the submitter's reference (cancels
//	                            when no other waiter remains)
//	GET    /healthz             liveness + pool shape
//	GET    /metrics             text metrics (cache, dedup, cancels)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

const maxRequestBytes = 8 << 20

func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request) (*Request, bool) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("decode request: %v", err))
		return nil, false
	}
	if err := req.validate(); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return nil, false
	}
	return &req, true
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeRequest(w, r)
	if !ok {
		return
	}
	s.requests.Add(1)
	j, body, status, err := s.submit(req)
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, errBusy) {
			code = http.StatusServiceUnavailable
		} else if j == nil {
			code = http.StatusBadRequest
		}
		httpError(w, code, err.Error())
		return
	}
	if status == statusHit {
		writeResult(w, body, status, "")
		return
	}
	select {
	case <-j.done:
		if j.err != nil {
			code := http.StatusInternalServerError
			var inErr *core.InputError
			switch {
			case errors.Is(j.err, context.Canceled):
				code = http.StatusServiceUnavailable
			case errors.As(j.err, &inErr):
				code = http.StatusBadRequest
			}
			httpError(w, code, j.err.Error())
			return
		}
		writeResult(w, j.body, status, j.id)
	case <-r.Context().Done():
		// Client hung up: drop our reference; the last waiter out
		// cancels the job's explore/verify work mid-BFS.
		s.clientsGone.Add(1)
		j.unref()
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeRequest(w, r)
	if !ok {
		return
	}
	s.requests.Add(1)
	j, body, status, err := s.submit(req)
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, errBusy) {
			code = http.StatusServiceUnavailable
		} else if j == nil {
			code = http.StatusBadRequest
		}
		httpError(w, code, err.Error())
		return
	}
	resp := map[string]any{"status": string(status)}
	w.Header().Set("Content-Type", "application/json")
	if status == statusHit {
		resp["result"] = json.RawMessage(body)
	} else {
		resp["id"] = j.id
		resp["key"] = j.key.String()
		w.WriteHeader(http.StatusAccepted)
	}
	writeJSON(w, resp)
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "unknown job")
		return
	}
	resp := map[string]any{"id": j.id, "key": j.key.String()}
	select {
	case <-j.done:
		switch {
		case j.err == nil:
			resp["status"] = "done"
			resp["result"] = json.RawMessage(j.body)
		case errors.Is(j.err, context.Canceled):
			resp["status"] = "canceled"
			resp["error"] = j.err.Error()
		default:
			resp["status"] = "error"
			resp["error"] = j.err.Error()
		}
	default:
		resp["status"] = j.phase()
	}
	writeJSON(w, resp)
}

func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "unknown job")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusNotImplemented, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	from := 0
	for {
		evs, notify := j.watch(from)
		for _, ev := range evs {
			b, _ := json.Marshal(ev)
			fmt.Fprintf(w, "data: %s\n\n", b)
			from++
		}
		fl.Flush()
		select {
		case <-notify:
		case <-j.done:
			// Drain events published between watch and done, then end.
			if evs, _ := j.watch(from); len(evs) == 0 {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "unknown job")
		return
	}
	canceled := j.unref()
	writeJSON(w, map[string]any{"id": j.id, "canceling": canceled})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]any{
		"status":  "ok",
		"workers": s.cfg.Workers,
		"running": s.running.Load(),
		"queued":  len(s.queue),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	cs := s.cache.stats()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "ifsynd_requests_total %d\n", s.requests.Load())
	fmt.Fprintf(w, "ifsynd_cache_hits_total %d\n", cs.hits)
	fmt.Fprintf(w, "ifsynd_cache_digest_hits_total %d\n", cs.digestHits)
	fmt.Fprintf(w, "ifsynd_cache_misses_total %d\n", cs.misses)
	fmt.Fprintf(w, "ifsynd_cache_entries %d\n", cs.entries)
	fmt.Fprintf(w, "ifsynd_cache_bytes %d\n", cs.bytes)
	fmt.Fprintf(w, "ifsynd_cache_evictions_total %d\n", cs.evictions)
	var dHits, dMisses, dWrites, dErrs int64
	if s.cache.disk != nil {
		dHits, dMisses, dWrites, dErrs = s.cache.disk.stats()
	}
	fmt.Fprintf(w, "ifsynd_cache_disk_hits_total %d\n", dHits)
	fmt.Fprintf(w, "ifsynd_cache_disk_misses_total %d\n", dMisses)
	fmt.Fprintf(w, "ifsynd_cache_disk_writes_total %d\n", dWrites)
	fmt.Fprintf(w, "ifsynd_cache_disk_errors_total %d\n", dErrs)
	fmt.Fprintf(w, "ifsynd_inflight_dedup_total %d\n", s.dedups.Load())
	fmt.Fprintf(w, "ifsynd_queue_rejects_total %d\n", s.queueRejects.Load())
	fmt.Fprintf(w, "ifsynd_jobs_started_total %d\n", s.jobsStarted.Load())
	fmt.Fprintf(w, "ifsynd_jobs_done_total %d\n", s.jobsDone.Load())
	fmt.Fprintf(w, "ifsynd_jobs_canceled_total %d\n", s.jobsCanceled.Load())
	fmt.Fprintf(w, "ifsynd_jobs_failed_total %d\n", s.jobsFailed.Load())
	fmt.Fprintf(w, "ifsynd_jobs_running %d\n", s.running.Load())
	fmt.Fprintf(w, "ifsynd_jobs_queued %d\n", len(s.queue))
	fmt.Fprintf(w, "ifsynd_clients_gone_total %d\n", s.clientsGone.Load())
	fmt.Fprintf(w, "ifsynd_cancel_latency_ns_total %d\n", s.cancelNsSum.Load())
	fmt.Fprintf(w, "ifsynd_cancel_latency_ns_max %d\n", s.cancelNsMax.Load())
	fmt.Fprintf(w, "ifsynd_workers %d\n", s.cfg.Workers)
}

// writeResult writes a completed (or cached) body with its cache
// disposition in X-Cache — the header, not the body, because cached
// and fresh bodies must be byte-identical.
func writeResult(w http.ResponseWriter, body []byte, status submitStatus, jobID string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", string(status))
	if jobID != "" {
		w.Header().Set("X-Job-Id", jobID)
	}
	w.Write(body)
}

func writeJSON(w http.ResponseWriter, v any) {
	if w.Header().Get("Content-Type") == "" {
		w.Header().Set("Content-Type", "application/json")
	}
	b, err := json.Marshal(v)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Write(append(b, '\n'))
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	b, _ := json.Marshal(map[string]string{"error": msg})
	w.Write(append(b, '\n'))
}
