// Command ifsynd is the interface-synthesis daemon: a long-running
// HTTP/JSON service that runs synthesize / verify / repair / sweep
// requests on a bounded worker pool, streams job progress, and replays
// completed results from a content-addressed cache.
//
// Endpoints (see internal/serve and DESIGN.md §5i):
//
//	POST   /v1/query            run (or replay) a request synchronously
//	POST   /v1/jobs             submit asynchronously → job id
//	GET    /v1/jobs/{id}        job status + result when done
//	GET    /v1/jobs/{id}/events SSE progress stream
//	DELETE /v1/jobs/{id}        cancel (drops the submitter's reference)
//	GET    /healthz, /metrics   liveness and text metrics
//
// Usage:
//
//	go run ./cmd/ifsynd [-addr :8047] [-jobs N] [-queue N]
//	                    [-cache-entries N] [-cache-mb N] [-cache-dir D]
//
//	-addr A           listen address (default 127.0.0.1:8047)
//	-jobs N           concurrent jobs (0 = one per CPU); running jobs
//	                  share the CPUs, a lone job's checker using them all
//	-queue N          queued-job bound before 503 (default 256)
//	-cache-entries N  result-cache entry bound (default 1024)
//	-cache-mb N       result-cache byte bound in MiB (default 64)
//	-cache-dir D      persistent result store; repeat queries are
//	                  answered from it across daemon restarts
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8047", "listen address")
	jobs := flag.Int("jobs", 0, "concurrent jobs (0 = one per CPU); running jobs share the CPUs, and a lone job's checker uses them all")
	queue := flag.Int("queue", 0, "queued-job bound (0 = 256)")
	cacheEntries := flag.Int("cache-entries", 0, "result cache entry bound (0 = 1024)")
	cacheMB := flag.Int64("cache-mb", 0, "result cache byte bound in MiB (0 = 64)")
	cacheDir := flag.String("cache-dir", "", "persistent result store directory (empty = RAM cache only)")
	flag.Parse()

	srv, err := serve.New(serve.Config{
		Workers:      *jobs,
		QueueDepth:   *queue,
		CacheEntries: *cacheEntries,
		CacheBytes:   *cacheMB << 20,
		CacheDir:     *cacheDir,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ifsynd: %v\n", err)
		os.Exit(1)
	}
	defer srv.Close()

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "ifsynd: listening on %s\n", *addr)

	select {
	case <-ctx.Done():
		// Graceful drain: stop accepting, let in-flight requests finish
		// (bounded), then cancel everything still running via srv.Close.
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			fmt.Fprintf(os.Stderr, "ifsynd: shutdown: %v\n", err)
		}
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "ifsynd: %v\n", err)
			os.Exit(1)
		}
	}
}
