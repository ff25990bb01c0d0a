package par

import (
	"context"
	"runtime"
	"sync"
)

// A Share divides a fixed number of CPUs between concurrently running
// jobs without idling any of them: each running job holds one CPU, and
// each ForCtx or ForChunksCtx loop run under the share borrows the CPUs
// that are idle when it starts and gives them back when it returns. A
// lone job's loops therefore run on every CPU, and two jobs' loops on
// one each.
//
// A loop keeps what it borrowed until it returns, so a job that joins
// while another job's loop holds the CPUs it needs waits for that loop
// to end (one BFS layer of the checker) rather than oversubscribe the
// machine, and no loop borrows while a job waits. Jobs past the
// share's CPUs (a pool wider than the machine) run as soon as no CPU
// is lent, one CPU each.
//
// A job's loops find the share through their context (WithShare), so
// code between the job and its loops passes nothing new; a loop whose
// context carries no share runs at its worker count.
type Share struct {
	mu   sync.Mutex
	cond sync.Cond
	cpus int
	jobs int // running jobs, one CPU each
	lent int // CPUs lent to running loops beyond their callers' own
}

// NewShare returns a share of cpus CPUs (at least one).
func NewShare(cpus int) *Share {
	if cpus < 1 {
		cpus = 1
	}
	s := &Share{cpus: cpus}
	s.cond.L = &s.mu
	return s
}

// Join counts one more running job, waiting while lent CPUs keep it
// from a CPU of its own, and returns the function that counts it out.
func (s *Share) Join() (leave func()) {
	s.mu.Lock()
	s.jobs++
	for s.lent > 0 && s.jobs+s.lent > s.cpus {
		s.cond.Wait()
	}
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		s.jobs--
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

// lend lends up to want idle CPUs and reports how many it lent.
func (s *Share) lend(want int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := min(want, s.cpus-s.jobs-s.lent)
	if n <= 0 {
		return 0
	}
	s.lent += n
	return n
}

// giveBack returns n lent CPUs and wakes any job waiting for them.
func (s *Share) giveBack(n int) {
	if n == 0 {
		return
	}
	s.mu.Lock()
	s.lent -= n
	s.cond.Broadcast()
	s.mu.Unlock()
}

type shareKey struct{}

// WithShare returns a context whose loops borrow from s.
func WithShare(ctx context.Context, s *Share) context.Context {
	return context.WithValue(ctx, shareKey{}, s)
}

// borrow reports how many workers a ForCtx loop of n iterations may
// use now, at most workers (workers <= 0: every CPU) and at most n, and
// returns the function that ends the loan, which the loop must call
// when it returns. Without a share in ctx it lends nothing: the count
// is workers, or GOMAXPROCS for workers <= 0.
func borrow(ctx context.Context, workers, n int) (int, func()) {
	s, _ := ctx.Value(shareKey{}).(*Share)
	if workers <= 0 {
		if s != nil {
			workers = s.cpus
		} else {
			workers = runtime.GOMAXPROCS(0)
		}
	}
	if workers > n {
		workers = n
	}
	if s == nil || workers <= 1 {
		return max(workers, 1), func() {}
	}
	lent := s.lend(workers - 1)
	return 1 + lent, func() { s.giveBack(lent) }
}
