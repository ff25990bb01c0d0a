package serve

import (
	"context"
	"sync"
	"time"

	"repro/internal/spec"
)

// Event is one job progress record, streamed to watchers over SSE and
// kept in the job's replay buffer so late subscribers see the full
// history. Events are observation only — they never enter the cached
// response body, which must stay a pure function of the request.
type Event struct {
	Seq    int    `json:"seq"`
	Kind   string `json:"kind"` // queued | started | progress | done | canceled | error
	Msg    string `json:"msg,omitempty"`
	States int    `json:"states,omitempty"`
	Depth  int    `json:"depth,omitempty"`
}

// job is one queued/running/completed unit of work. Identical
// concurrent requests share a single job (in-flight dedup): each waiter
// holds a reference, and the job's context is canceled only when every
// waiter has gone — one impatient client must not abort a computation
// another client is still waiting for.
type job struct {
	id       string
	key      Key
	specHash spec.Digest
	// digest is the digest of the request that created the job; its
	// completed body enters the cache under it. Dedup joiners share
	// the job but record nothing.
	digest reqDigest
	// req and sys are the request and the system its key resolved:
	// parsed once in submit, refined by the run, and both dropped when
	// run returns, so the retained jobs pin neither request text nor
	// refined systems. Only the worker running the job touches them
	// after submit.
	req *Request
	sys *spec.System

	ctx    context.Context
	cancel context.CancelFunc

	// done closes when run() finishes; body/err are immutable after.
	done chan struct{}
	body []byte
	err  error

	mu         sync.Mutex
	refs       int
	canceledAt time.Time // when refs hit zero (cancel-latency anchor)
	events     []Event
	notify     chan struct{} // closed and replaced on each publish
	// maxEvents bounds the replay buffer; past it, publishes are
	// dropped (progress is best-effort, results are not).
	maxEvents int
}

func newJob(id string, key Key, digest reqDigest, req *Request, parent context.Context) *job {
	ctx, cancel := context.WithCancel(parent)
	return &job{
		id: id, key: key, digest: digest, req: req,
		ctx: ctx, cancel: cancel,
		done:      make(chan struct{}),
		refs:      1,
		notify:    make(chan struct{}),
		maxEvents: 8192,
	}
}

// publish appends an event and wakes every watcher.
func (j *job) publish(kind, msg string, states, depth int) {
	j.mu.Lock()
	if len(j.events) >= j.maxEvents {
		j.mu.Unlock()
		return
	}
	j.events = append(j.events, Event{
		Seq: len(j.events), Kind: kind, Msg: msg, States: states, Depth: depth,
	})
	close(j.notify)
	j.notify = make(chan struct{})
	j.mu.Unlock()
}

// watch returns the events at or past `from` plus the channel that
// closes on the next publish — the condition-variable idiom that lets
// an SSE handler stream without the job tracking subscribers.
func (j *job) watch(from int) ([]Event, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var evs []Event
	if from < len(j.events) {
		evs = append(evs, j.events[from:]...)
	}
	return evs, j.notify
}

// ref adds a waiter. It fails (returns false) once the job has been
// canceled — a new arrival must start a fresh job rather than join a
// computation that is already unwinding.
func (j *job) ref() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.refs <= 0 {
		return false
	}
	j.refs++
	return true
}

// unref drops a waiter; the last one out cancels the work and stamps
// the cancel-latency anchor. Reports whether this call canceled.
func (j *job) unref() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.refs--
	if j.refs > 0 {
		return false
	}
	j.canceledAt = time.Now()
	j.cancel()
	return true
}

// cancelLatency reports the time from the last waiter leaving to the
// job's run actually returning; zero if the job was never canceled.
func (j *job) cancelLatency(endedAt time.Time) time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.canceledAt.IsZero() {
		return 0
	}
	return endedAt.Sub(j.canceledAt)
}

// phase reports a live job's stage from its event log: "running" once
// a started event was published, "queued" before.
func (j *job) phase() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, ev := range j.events {
		if ev.Kind == "started" {
			return "running"
		}
	}
	return "queued"
}

// progressHook returns a verify.Config.Progress-shaped callback that
// publishes throttled progress events: one per ~32 BFS layers or 20k
// new states, so a million-state search emits dozens of events, not
// thousands.
func (j *job) progressHook() func(states, depth int) {
	var lastStates, lastDepth int
	return func(states, depth int) {
		if depth-lastDepth < 32 && states-lastStates < 20_000 {
			return
		}
		lastStates, lastDepth = states, depth
		j.publish("progress", "", states, depth)
	}
}
