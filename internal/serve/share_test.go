package serve

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/par"
	"repro/internal/spec"
)

// TestCPUShare pins how running jobs divide the CPUs, through the
// executor seam: a lone job's loops may use all GOMAXPROCS CPUs, a
// request's workers option caps them, two jobs in the executor never
// run more than GOMAXPROCS goroutines between them, and a job whose
// loop panicked leaves the share as it found it. The test executor
// runs its loops through par.ForCtx, as the checker does, and counts
// the goroutines doing job work: a job's own outside its loops, and
// each iteration in flight inside them. A loop's width is the most of
// its iterations in flight at once.
func TestCPUShare(t *testing.T) {
	const cpus = 4
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cpus))
	prev := log.Writer()
	log.SetOutput(io.Discard) // the panicking job logs its stack
	t.Cleanup(func() { log.SetOutput(prev) })

	var busy, peak atomic.Int64
	count := func(n int64) {
		v := busy.Add(n)
		for p := peak.Load(); v > p && !peak.CompareAndSwap(p, v); p = peak.Load() {
		}
	}
	var mu sync.Mutex
	widths := map[string][]int{}
	// loop runs one loop of 2*cpus iterations. Its first want
	// iterations wait, up to 10 s, until want iterations are in flight
	// (so a loop of at least want workers shows them all) and then run
	// hold; every iteration then sleeps a millisecond, so the
	// iterations of a wider loop than expected overlap.
	loop := func(ctx context.Context, name string, workers, want int, hold func()) error {
		var in, width atomic.Int64
		reached := make(chan struct{})
		var once sync.Once
		count(-1)
		defer count(1)
		err := par.ForCtx(ctx, 2*cpus, workers, func(i int) {
			count(1)
			defer count(-1)
			v := in.Add(1)
			defer in.Add(-1)
			for w := width.Load(); v > w && !width.CompareAndSwap(w, v); w = width.Load() {
			}
			if v >= int64(want) {
				once.Do(func() { close(reached) })
			}
			if i < want {
				select {
				case <-reached:
				case <-time.After(10 * time.Second):
				}
				if hold != nil {
					hold()
				}
			}
			time.Sleep(time.Millisecond)
		})
		mu.Lock()
		widths[name] = append(widths[name], int(width.Load()))
		mu.Unlock()
		return err
	}
	xIn, yDone := make(chan struct{}), make(chan struct{})
	var yIn atomic.Bool
	var srv *Server
	swapExecutor(t, func(ctx context.Context, req *Request, sys *spec.System, key Key, specHash spec.Digest, progress func(states, depth int)) ([]byte, error) {
		count(1)
		defer count(-1)
		name := fmt.Sprintf("%s/%d", req.Workload, req.Options.VerifyStates)
		switch {
		case req.Options.VerifyStates == 3:
			// The panic leaves the loop after it has borrowed.
			par.ForCtx(ctx, 2*cpus, 0, func(int) { panic("loop bug") }) //nolint:errcheck // it panics
			return nil, fmt.Errorf("the loop did not panic")
		case req.Options.VerifyStates == 4:
			yIn.Store(true)
			err := loop(ctx, name, 0, 1, nil)
			close(yDone)
			return []byte("{}\n"), err
		case req.Workload != "pq":
			want := cpus
			if w := req.Options.Workers; w > 0 {
				want = w
			}
			return []byte("{}\n"), loop(ctx, name, req.Options.Workers, want, nil)
		}
		// Job X: its first loop starts alone and keeps its loan until
		// job Y is running, and a while after: Y must wait for the
		// loan rather than enter the executor beside it. Then X loops
		// until Y has run a loop of its own.
		var entered sync.Once
		if err := loop(ctx, name, 0, cpus, func() {
			entered.Do(func() { close(xIn) })
			deadline := time.Now().Add(10 * time.Second)
			for srv.running.Load() < 2 && !yIn.Load() && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			time.Sleep(20 * time.Millisecond)
		}); err != nil {
			return nil, err
		}
		deadline := time.After(10 * time.Second)
		for {
			select {
			case <-yDone:
				return []byte("{}\n"), nil
			case <-deadline:
				return nil, fmt.Errorf("job Y never ran beside job X")
			default:
			}
			if err := loop(ctx, name, 0, 1, nil); err != nil {
				return nil, err
			}
		}
	})
	srv, ts := newTestServer(t, Config{Workers: 2})
	post := func(body string, want int) {
		resp, b := postJSON(t, ts.URL+"/v1/query", body)
		if resp.StatusCode != want {
			t.Errorf("%s: status %d, want %d: %s", body, resp.StatusCode, want, b)
		}
	}

	post(`{"op":"verify","workload":"pq-solo","options":{"verify_states":3}}`, http.StatusInternalServerError)
	post(`{"op":"verify","workload":"pq-solo","options":{"verify_states":1}}`, http.StatusOK)
	post(`{"op":"verify","workload":"pq-solo","options":{"verify_states":2,"workers":1}}`, http.StatusOK)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(`{"op":"verify","workload":"pq"}`))
		if err != nil {
			t.Error(err)
			return
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("job X: status %d: %s", resp.StatusCode, b)
		}
	}()
	select {
	case <-xIn:
	case <-time.After(10 * time.Second):
		t.Fatal("job X never started its first loop")
	}
	post(`{"op":"verify","workload":"pq-solo","options":{"verify_states":4}}`, http.StatusOK)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if got := widths["pq-solo/1"]; len(got) != 1 || got[0] != cpus {
		t.Errorf("lone job's loop widths %v after a panicked loop, want [%d]", got, cpus)
	}
	if got := widths["pq-solo/2"]; len(got) != 1 || got[0] != 1 {
		t.Errorf("workers 1 job's loop widths %v, want [1]", got)
	}
	if got := widths["pq/0"]; len(got) == 0 || got[0] != cpus {
		t.Errorf("job X's first loop widths %v, want %d first, while it ran alone", got[:min(len(got), 4)], cpus)
	}
	if got := widths["pq-solo/4"]; len(got) != 1 || got[0] > cpus-1 {
		t.Errorf("job Y's loop widths %v, want one of at most %d beside job X", got, cpus-1)
	}
	if p := peak.Load(); p > cpus {
		t.Errorf("the jobs in the executor ran %d goroutines at once, above the %d of GOMAXPROCS", p, cpus)
	}
}
