package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/explore"
	"repro/internal/partition"
	"repro/internal/spec"
	"repro/internal/vhdlgen"
)

// executeFn is the job execution entry point; a var so tests can
// substitute a controlled executor to pin down queue/dedup/cancel
// interleavings without timing assumptions.
var executeFn = execute

// execute runs one request on sys, the system its key resolved, and
// renders the response body. Synthesis refines sys in place, so each
// system serves one execution. The body is a pure function of (spec,
// op, options minus Workers): no timestamps, no durations, no worker
// counts — that is what licenses the cache to replay it byte for byte.
//
// ctx carries the server's CPU share, so each of the checker's
// parallel loops runs on the CPUs no other job is using when it starts,
// capped by a non-zero Options.Workers; results are worker-invariant,
// so this affects latency only.
func execute(ctx context.Context, req *Request, sys *spec.System, key Key, specHash spec.Digest, progress func(states, depth int)) ([]byte, error) {
	res := &ResultJSON{
		Op:       req.Op,
		SpecHash: specHash.String(),
		Key:      key.String(),
		System:   sys.Name,
	}

	if req.Op == OpSweep {
		if err := sweepInto(ctx, res, sys, req.Options); err != nil {
			return nil, err
		}
		return encodeBody(res)
	}

	opts, err := req.Options.coreOptions(req.Op)
	if err != nil {
		return nil, err
	}
	opts.VerifyProgress = progress
	rep, err := core.SynthesizeCtx(ctx, sys, opts)
	if err != nil {
		return nil, err
	}
	res.Buses = busesJSON(rep)
	res.Verify = NewVerifyJSON(rep.Verify)
	res.Repair = NewRepairJSON(rep.Repair)
	// The reply carries the refined listing's digest and size, not its
	// text, so the listing is rendered into a pooled buffer and hashed
	// in place.
	bp := listings.Get().(*[]byte)
	vhdl := vhdlgen.AppendEmit((*bp)[:0], sys)
	sum := sha256.Sum256(vhdl)
	res.VHDLSHA256 = hex.EncodeToString(sum[:])
	res.VHDLBytes = len(vhdl)
	putListing(bp, vhdl)
	return encodeBody(res)
}

// listings pools the buffers execute renders listings into.
var listings = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledListing is the largest buffer putListing keeps. Most
// listings are a few KB; a 6x6 mesh at width 1 renders 0.6 to 3.3 MB,
// and pooling its buffer would keep that resident after the request.
const maxPooledListing = 1 << 20

// putListing returns the buffer a listing was rendered into to the pool
// through bp, unless it grew past maxPooledListing. It reports whether
// the buffer was kept.
func putListing(bp *[]byte, buf []byte) bool {
	if cap(buf) > maxPooledListing {
		return false
	}
	*bp = buf[:0]
	listings.Put(bp)
	return true
}

// sweepInto runs the design-space exploration op: derive channels if
// the spec declared none, sweep the first bus group (or the whole
// channel set), and report the grid plus its Pareto frontier.
func sweepInto(ctx context.Context, res *ResultJSON, sys *spec.System, o Options) error {
	if len(sys.Channels) == 0 {
		if _, err := partition.DeriveChannels(sys); err != nil {
			return err
		}
	}
	if len(sys.Channels) == 0 {
		return &core.InputError{Err: fmt.Errorf("system %s has no inter-module communication to sweep", sys.Name)}
	}
	channels := sys.Channels
	if len(sys.Buses) > 0 && len(sys.Buses[0].Channels) > 0 {
		channels = sys.Buses[0].Channels
	}
	sp, err := explore.SweepCtx(ctx, channels, estimate.New(sys.Channels), explore.Config{
		MinWidth:      o.MinWidth,
		MaxWidth:      o.MaxWidth,
		IncludeRobust: o.IncludeRobust,
		// The grid takes well under a millisecond and measured slower
		// at two workers than at one, so by default it runs on the
		// job's own CPU rather than borrow idle ones.
		Workers: max(o.Workers, 1),
	})
	if err != nil {
		if ctx.Err() != nil {
			return err
		}
		// Besides stopping on ctx, SweepCtx fails only on its input: an
		// empty width range, or a group without message bits to bound it.
		return &core.InputError{Err: err}
	}
	for _, p := range sp.Points {
		res.Points = append(res.Points, newPointJSON(p))
	}
	for _, p := range sp.Pareto() {
		res.Pareto = append(res.Pareto, newPointJSON(p))
	}
	return nil
}

// encodeBody renders the response body: compact JSON plus a trailing
// newline. encoding/json emits struct fields in declaration order and
// ResultJSON contains no maps, so the encoding is deterministic.
func encodeBody(res *ResultJSON) ([]byte, error) {
	b, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
