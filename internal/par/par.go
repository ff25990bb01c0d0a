// Package par provides the bounded worker pool the synthesis flow uses
// to fan independent candidate evaluations (width x protocol points,
// bus-generation width trials) across CPUs. Results stay deterministic
// because work is indexed: For(n, ...) invokes the body exactly once
// for every i in [0, n), and bodies write only to their own slot, so
// output order never depends on goroutine scheduling.
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// For runs fn(i) for every i in [0, n), fanning the iterations across
// at most workers goroutines. workers <= 0 means GOMAXPROCS; a single
// worker (or n <= 1) runs inline with no goroutines. For returns after
// every iteration has completed. fn must be safe for concurrent calls
// with distinct indices; iterations are claimed from a shared atomic
// counter, so scheduling is dynamic but each index runs exactly once.
//
// A panic in fn reaches For's caller, as it would from a loop. On a
// worker goroutine it is recovered, no worker claims another index,
// and once every worker has returned For re-raises it as a
// *WorkerPanic, so a caller's recover can catch it.
//
// Degenerate inputs are guarded rather than left to wedge the pool: a
// negative or zero n is an empty range (For returns immediately, fn is
// never called), and a worker count that is still unusable after the
// GOMAXPROCS substitution clamps to 1 so the loop always makes
// progress instead of spawning zero goroutines and hanging the wait.
func For(n, workers int, fn func(i int)) {
	forRange(nil, n, workers, fn)
}

// ForCtx is For with cooperative cancellation: once ctx is done, no
// further iteration starts (iterations already running complete) and
// ForCtx returns ctx.Err() instead of draining the remaining slots. An
// already-canceled context returns immediately without calling fn at
// all. A nil ctx behaves like For. The error is the context's error at
// return time, so callers must treat any non-nil result as "output
// slots may be unwritten" — a cancellation that races the final
// iteration still reports the cancel.
//
// When ctx carries a Share (WithShare), workers is a cap rather than a
// count (workers <= 0 caps at the share's CPUs): the loop runs on its
// caller's CPU plus the CPUs of the share that are idle when it starts,
// and gives those back when it returns.
func ForCtx(ctx context.Context, n, workers int, fn func(i int)) error {
	if ctx == nil {
		forRange(nil, n, workers, fn)
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	workers, giveBack := borrow(ctx, workers, n)
	defer giveBack()
	forRange(ctx.Done(), n, workers, fn)
	return ctx.Err()
}

// ForChunks runs fn(lo, hi) over consecutive index blocks covering
// [0, n): fn is invoked once per chunk with 0 <= lo < hi <= n, chunks
// are disjoint and together cover the range exactly. Million-index
// loops (fault campaigns, seed sweeps) dispatch per block instead of
// per index, so the per-iteration scheduling cost is amortized over
// `chunk` items and workers touch contiguous memory.
//
// chunk <= 0 picks a default that yields several chunks per worker
// (dynamic scheduling still balances uneven chunks) and at least 1.
// The same degenerate-input guarantees as For apply: n <= 0 is an
// empty range, and any workers value is usable. Chunk *contents* run
// in ascending index order within fn, and callers that write per-chunk
// slots indexed by lo/chunk get deterministic output at any worker
// count.
func ForChunks(n, workers, chunk int, fn func(lo, hi int)) {
	ForChunksCtx(nil, n, workers, chunk, fn) //nolint:errcheck // nil ctx never errors
}

// ForChunksCtx is ForChunks with cooperative cancellation, with the
// same contract as ForCtx: once ctx is done no further chunk starts,
// and the ctx error is returned instead of draining the remaining
// chunks, and a Share in ctx lends the loop its idle CPUs. A nil ctx
// behaves like ForChunks and returns nil.
func ForChunksCtx(ctx context.Context, n, workers, chunk int, fn func(lo, hi int)) error {
	if n <= 0 {
		return nil
	}
	if chunk <= 0 {
		w := workers
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		if w <= 0 {
			w = 1
		}
		chunk = n / (8 * w)
		if chunk < 1 {
			chunk = 1
		}
	}
	nchunks := (n + chunk - 1) / chunk
	return ForCtx(ctx, nchunks, workers, func(c int) {
		lo := c * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		fn(lo, hi)
	})
}

// DefaultWorkers reports the worker count a workers <= 0 argument
// resolves to (GOMAXPROCS, floored at 1), for callers that size
// per-worker state such as chunk partitions.
func DefaultWorkers() int {
	if w := runtime.GOMAXPROCS(0); w > 0 {
		return w
	}
	return 1
}

// WorkerPanic is the value For and its variants re-raise when fn
// panicked on a worker goroutine: the panic's value and the stack of
// the worker it was raised on, which the re-raise would otherwise lose.
// A panic re-raised through nested loops keeps the innermost worker's
// stack.
type WorkerPanic struct {
	Value any
	Stack []byte
}

func (p *WorkerPanic) Error() string {
	return fmt.Sprintf("%v\n\nworker goroutine stack:\n%s", p.Value, p.Stack)
}

// forRange claims indices from a shared counter until the range is
// exhausted, done (which may be nil) is closed, or fn has panicked on
// a worker. The checks happen before each claim, so cancellation stops
// new work promptly without interrupting iterations already in flight.
func forRange(done <-chan struct{}, n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers <= 0 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if done != nil {
				select {
				case <-done:
					return
				default:
				}
			}
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var panicked atomic.Pointer[WorkerPanic]
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					wp, ok := p.(*WorkerPanic)
					if !ok {
						wp = &WorkerPanic{Value: p, Stack: debug.Stack()}
					}
					panicked.CompareAndSwap(nil, wp)
				}
			}()
			for {
				if panicked.Load() != nil {
					return
				}
				if done != nil {
					select {
					case <-done:
						return
					default:
					}
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p)
	}
}
