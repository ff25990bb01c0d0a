package par

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 100} {
		const n = 1000
		counts := make([]int32, n)
		For(n, workers, func(i int) { atomic.AddInt32(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForDeterministicSlots(t *testing.T) {
	const n = 512
	serial := make([]int, n)
	For(n, 1, func(i int) { serial[i] = i * i })
	parallel := make([]int, n)
	For(n, 8, func(i int) { parallel[i] = i * i })
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("slot %d: serial %d parallel %d", i, serial[i], parallel[i])
		}
	}
}

func TestForEmptyAndTiny(t *testing.T) {
	For(0, 4, func(int) { t.Fatal("body ran for n=0") })
	ran := false
	For(1, 4, func(i int) { ran = true })
	if !ran {
		t.Fatal("body skipped for n=1")
	}
}

// TestForChunksCoversRangeExactly pins the chunk contract: blocks are
// disjoint, ascending within a block, and together cover [0, n) exactly
// — including the ragged final block when chunk does not divide n.
func TestForChunksCoversRangeExactly(t *testing.T) {
	cases := []struct {
		name           string
		n, workers     int
		chunk          int
		wantChunkCalls int // -1: don't check
	}{
		{"exact-multiple", 1000, 4, 100, 10},
		{"ragged-tail", 1001, 4, 100, 11},
		{"chunk-of-one", 17, 4, 1, 17},
		{"chunk-larger-than-n", 5, 4, 100, 1},
		{"chunk-equals-n", 64, 4, 64, 1},
		{"auto-chunk", 10000, 4, 0, -1},
		{"auto-chunk-tiny-n", 3, 8, 0, -1},
		{"zero-workers", 1000, 0, 128, -1},
		{"negative-workers", 257, -9, 64, -1},
		{"single-worker", 500, 1, 33, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			counts := make([]int32, tc.n)
			var calls atomic.Int32
			ForChunks(tc.n, tc.workers, tc.chunk, func(lo, hi int) {
				calls.Add(1)
				if lo < 0 || hi > tc.n || lo >= hi {
					t.Errorf("bad chunk [%d, %d) for n=%d", lo, hi, tc.n)
					return
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&counts[i], 1)
				}
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("index %d covered %d times", i, c)
				}
			}
			if tc.wantChunkCalls >= 0 && int(calls.Load()) != tc.wantChunkCalls {
				t.Fatalf("fn called %d times, want %d", calls.Load(), tc.wantChunkCalls)
			}
		})
	}
}

// TestForChunksGuards: degenerate inputs are empty ranges or clamped,
// exactly like For — the call must return without invoking fn for
// n <= 0 and must not hang for any workers/chunk combination.
func TestForChunksGuards(t *testing.T) {
	ForChunks(0, 4, 16, func(lo, hi int) { t.Fatal("fn ran for n=0") })
	ForChunks(-3, 0, 0, func(lo, hi int) { t.Fatal("fn ran for n<0") })
	ForChunks(-1, -1, -1, func(lo, hi int) { t.Fatal("fn ran for n<0") })
	ran := 0
	ForChunks(1, 1, -5, func(lo, hi int) { ran += hi - lo })
	if ran != 1 {
		t.Fatalf("negative chunk: covered %d indices, want 1", ran)
	}
}

// TestForChunksDeterministicSlots: per-chunk slot writes keyed by chunk
// index are identical at any worker count.
func TestForChunksDeterministicSlots(t *testing.T) {
	const n, chunk = 1000, 64
	shard := func(workers int) []int {
		out := make([]int, (n+chunk-1)/chunk)
		ForChunks(n, workers, chunk, func(lo, hi int) {
			sum := 0
			for i := lo; i < hi; i++ {
				sum += i * i
			}
			out[lo/chunk] = sum
		})
		return out
	}
	a, b := shard(1), shard(8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("chunk %d: serial %d parallel %d", i, a[i], b[i])
		}
	}
}

// TestForGuards pins the degenerate-input contract: negative and zero
// ranges are empty (never hang, never call fn), and any worker count —
// zero, negative, or absurdly large — still visits every index exactly
// once. For must return (not deadlock) in every case; the test itself
// hanging is the failure mode for a regression here.
func TestForGuards(t *testing.T) {
	cases := []struct {
		name    string
		n       int
		workers int
		want    int // total fn invocations
	}{
		{"negative-n", -5, 4, 0},
		{"negative-n-negative-workers", -1, -1, 0},
		{"zero-n", 0, 0, 0},
		{"zero-workers", 10, 0, 10},
		{"negative-workers", 10, -3, 10},
		{"very-negative-workers", 7, -1 << 30, 7},
		{"more-workers-than-work", 3, 64, 3},
		{"one-worker", 5, 1, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var total atomic.Int32
			seen := make([]int32, max(tc.n, 0))
			For(tc.n, tc.workers, func(i int) {
				total.Add(1)
				atomic.AddInt32(&seen[i], 1)
			})
			if got := int(total.Load()); got != tc.want {
				t.Fatalf("For(%d, %d): fn ran %d times, want %d", tc.n, tc.workers, got, tc.want)
			}
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("For(%d, %d): index %d ran %d times", tc.n, tc.workers, i, c)
				}
			}
		})
	}
}

// TestForCtxPreCanceled pins the already-canceled contract: fn must
// never run and the context's error comes back immediately, at any
// worker count.
func TestForCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{0, 1, 4} {
		err := ForCtx(ctx, 1000, workers, func(int) {
			t.Errorf("workers=%d: fn ran under a canceled context", workers)
		})
		if err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
	err := ForChunksCtx(ctx, 1000, 4, 16, func(lo, hi int) {
		t.Error("chunk fn ran under a canceled context")
	})
	if err != context.Canceled {
		t.Fatalf("ForChunksCtx: err = %v, want context.Canceled", err)
	}
}

// TestForCtxMidRunCancel cancels from inside an early iteration: the
// loop must stop claiming new indices instead of draining all n slots,
// and report the cancellation.
func TestForCtxMidRunCancel(t *testing.T) {
	const n = 100_000
	cases := []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var ran atomic.Int32
			err := ForCtx(ctx, n, tc.workers, func(i int) {
				if ran.Add(1) == 10 {
					cancel()
				}
			})
			if err != context.Canceled {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			// In-flight iterations may finish after the cancel, but the
			// vast majority of the range must never start.
			if got := ran.Load(); int(got) >= n/2 {
				t.Fatalf("ran %d of %d iterations after mid-run cancel", got, n)
			}
		})
	}
}

// TestForChunksCtxMidRunCancel is the chunked analogue: cancellation
// between chunks stops the sweep early.
func TestForChunksCtxMidRunCancel(t *testing.T) {
	const n, chunk = 100_000, 10
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var covered atomic.Int32
	err := ForChunksCtx(ctx, n, 4, chunk, func(lo, hi int) {
		if covered.Add(int32(hi-lo)) >= 100 {
			cancel()
		}
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := covered.Load(); int(got) >= n/2 {
		t.Fatalf("covered %d of %d indices after mid-run cancel", got, n)
	}
}

// TestForCtxNilAndUncanceled: a nil context is For, and an uncanceled
// context covers the whole range and returns nil.
func TestForCtxNilAndUncanceled(t *testing.T) {
	var ran atomic.Int32
	if err := ForCtx(nil, 100, 4, func(int) { ran.Add(1) }); err != nil || ran.Load() != 100 {
		t.Fatalf("nil ctx: err=%v ran=%d", err, ran.Load())
	}
	ran.Store(0)
	if err := ForCtx(context.Background(), 100, 4, func(int) { ran.Add(1) }); err != nil || ran.Load() != 100 {
		t.Fatalf("background ctx: err=%v ran=%d", err, ran.Load())
	}
}

// catch runs f and returns what it panicked with, or nil.
func catch(f func()) (p any) {
	defer func() { p = recover() }()
	f()
	return nil
}

// TestForWorkerPanic: at two workers, index 1 panics while index 0 is
// still running. For must wait for index 0 to finish, stop handing out
// indices, and re-raise the panic to its caller as a *WorkerPanic
// carrying the worker's stack; nothing runs after it returns.
func TestForWorkerPanic(t *testing.T) {
	const n = 1000
	panicking := make(chan struct{})
	var zeroDone atomic.Bool
	var ran atomic.Int64
	p := catch(func() {
		For(n, 2, func(i int) {
			ran.Add(1)
			switch i {
			case 0:
				<-panicking
				time.Sleep(time.Millisecond)
				zeroDone.Store(true)
			case 1:
				close(panicking)
				panic("boom")
			default:
				time.Sleep(100 * time.Microsecond)
			}
		})
	})
	wp, ok := p.(*WorkerPanic)
	if !ok {
		t.Fatalf("recovered %v (%T), want a *WorkerPanic", p, p)
	}
	if wp.Value != "boom" || !strings.Contains(string(wp.Stack), "TestForWorkerPanic") ||
		!strings.HasPrefix(wp.Error(), "boom") {
		t.Fatalf("WorkerPanic value %v, stack:\n%s", wp.Value, wp.Stack)
	}
	if !zeroDone.Load() {
		t.Fatal("For re-raised before index 0 returned")
	}
	after := ran.Load()
	if after >= n {
		t.Fatalf("%d of %d indices ran: the panic did not stop the loop", after, n)
	}
	time.Sleep(5 * time.Millisecond)
	if got := ran.Load(); got != after {
		t.Fatalf("%d indices started after For returned", got-after)
	}

	// A panic re-raised through a nested loop keeps the inner worker's
	// value and stack rather than wrapping them again.
	p = catch(func() {
		For(2, 2, func(i int) {
			For(2, 2, func(j int) {
				if i == 1 && j == 1 {
					panic("inner")
				}
			})
		})
	})
	if wp, ok := p.(*WorkerPanic); !ok || wp.Value != "inner" {
		t.Fatalf("nested: recovered %v (%T), want a *WorkerPanic of \"inner\"", p, p)
	}
}

// TestShareLendsIdleCPUs pins the share's accounting: a lone job's loop
// borrows every CPU, a second job waits for that loan to come back, a
// loop then gets only what neither job holds, the worker count and the
// iteration count cap a loan, and a context without a share lends
// nothing.
func TestShareLendsIdleCPUs(t *testing.T) {
	sh := NewShare(4)
	ctx := WithShare(context.Background(), sh)
	leaveA := sh.Join()
	n, giveBack := borrow(ctx, 0, 64)
	if n != 4 {
		t.Fatalf("lone job borrowed to %d workers, want 4", n)
	}
	joined := make(chan func())
	go func() { joined <- sh.Join() }()
	select {
	case <-joined:
		t.Fatal("a second job joined while the first held every CPU")
	case <-time.After(20 * time.Millisecond):
	}
	giveBack()
	leaveB := <-joined
	if n, giveBack := borrow(ctx, 0, 64); n != 3 {
		t.Fatalf("beside a second job a loop got %d workers, want 3", n)
	} else {
		giveBack()
	}
	if n, giveBack := borrow(ctx, 2, 64); n != 2 {
		t.Fatalf("a loop capped at 2 got %d workers", n)
	} else {
		giveBack()
	}
	leaveB()
	leaveA()
	if n, giveBack := borrow(ctx, 0, 2); n != 2 {
		t.Fatalf("a two-iteration loop got %d workers, want 2", n)
	} else {
		giveBack()
	}
	if n, _ := borrow(context.Background(), 7, 64); n != 7 {
		t.Fatalf("without a share a loop got %d workers, want the 7 asked", n)
	}
}

// TestForCtxUnderShare: a ForCtx loop under a share runs on its caller's
// CPU plus the idle ones, and gives them back when it returns, also
// when a worker panics.
func TestForCtxUnderShare(t *testing.T) {
	sh := NewShare(3)
	ctx := WithShare(context.Background(), sh)
	leaveA, leaveB := sh.Join(), sh.Join()
	var active, peak atomic.Int32
	if err := ForCtx(ctx, 64, 0, func(int) {
		v := active.Add(1)
		for p := peak.Load(); v > p && !peak.CompareAndSwap(p, v); p = peak.Load() {
		}
		time.Sleep(100 * time.Microsecond)
		active.Add(-1)
	}); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 2 {
		t.Fatalf("%d iterations ran at once with one idle CPU, want at most 2", p)
	}
	leaveB()
	if n, giveBack := borrow(ctx, 0, 64); n != 3 {
		t.Fatalf("after the loop returned a lone job's loop got %d workers, want 3", n)
	} else {
		giveBack()
	}

	// A loop whose worker panics gives its loan back as the panic
	// leaves it.
	func() {
		defer func() {
			if _, ok := recover().(*WorkerPanic); !ok {
				t.Fatal("the worker's panic did not reach the loop's caller")
			}
		}()
		ForCtx(ctx, 64, 0, func(int) { panic("boom") }) //nolint:errcheck // it panics
	}()
	if n, giveBack := borrow(ctx, 0, 64); n != 3 {
		t.Fatalf("after a loop panicked a lone job's loop got %d workers, want 3", n)
	} else {
		giveBack()
	}
	leaveA()
}
