// Package serve implements synthesis-as-a-service: a long-running
// HTTP/JSON daemon (cmd/ifsynd) that accepts a specification — inline
// .sys text or a named workload — plus synthesis options, runs
// synthesize / sweep / verify / repair as queued jobs on a bounded
// worker pool, streams job progress, and caches completed results in a
// content-addressed store keyed by the canonical hash of
// (spec, op, options).
//
// Determinism is the load-bearing property. The engine guarantees
// worker-invariant results (verdicts and reports byte-identical at any
// worker count), so the worker knob is excluded from the cache key and
// response bodies carry no timestamps or durations: a cached response
// is byte-for-byte the response a fresh run would have produced. See
// DESIGN.md §5i.
package serve

import (
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/repair"
	"repro/internal/verify"
)

// VerifyJSON is the machine-readable model-checking verdict, shared by
// the daemon's responses and protocheck -json so CI smokes parse one
// shape. It is the deterministic subset of verify.Report: Elapsed is
// deliberately absent (responses must be byte-identical across runs).
type VerifyJSON struct {
	Clean            bool   `json:"clean"`
	Procs            int    `json:"procs"`
	States           int    `json:"states"`
	Transitions      int64  `json:"transitions"`
	Depth            int    `json:"depth"`
	Incomplete       bool   `json:"incomplete,omitempty"`
	IncompleteReason string `json:"incomplete_reason,omitempty"`
	GoldenClocks     int64  `json:"golden_clocks"`
	// Fingerprint is the order-independent digest of the reachable set —
	// identical across worker counts and memory budgets, so it both
	// witnesses determinism and keys incremental re-verification.
	// Spill statistics are deliberately absent: they vary with the
	// budget, and the body must not.
	Fingerprint  string          `json:"fingerprint,omitempty"`
	Lossy        bool            `json:"lossy,omitempty"`
	OmissionProb float64         `json:"omission_probability,omitempty"`
	Violations   []ViolationJSON `json:"violations,omitempty"`
}

// ViolationJSON is one property violation, without the replayable
// counterexample (traces are streamed as job events, not cached).
type ViolationJSON struct {
	Kind    string `json:"kind"`
	Message string `json:"message"`
}

// NewVerifyJSON projects a verify report onto its deterministic
// machine-readable form.
func NewVerifyJSON(r *verify.Report) *VerifyJSON {
	if r == nil {
		return nil
	}
	v := &VerifyJSON{
		Clean:            r.Clean(),
		Procs:            r.Procs,
		States:           r.States,
		Transitions:      r.Transitions,
		Depth:            r.Depth,
		Incomplete:       r.Incomplete,
		IncompleteReason: r.IncompleteReason,
		GoldenClocks:     r.GoldenClocks,
		Fingerprint:      r.Fingerprint,
		Lossy:            r.Lossy,
		OmissionProb:     r.OmissionProb,
	}
	for _, vio := range r.Violations {
		v.Violations = append(v.Violations, ViolationJSON{
			Kind:    vio.Kind.String(),
			Message: vio.Message,
		})
	}
	return v
}

// RepairJSON is the machine-readable CEGIS repair trace (same shape as
// repair.Result.TraceJSON, reused field for field).
type RepairJSON struct {
	Repaired         bool               `json:"repaired"`
	Exhaustive       bool               `json:"exhaustive"`
	ExhaustedGrammar bool               `json:"exhausted_grammar,omitempty"`
	FinalTier        int                `json:"final_tier"`
	Mutations        []string           `json:"mutations"`
	Iterations       []repair.Iteration `json:"iterations"`
}

// NewRepairJSON projects a repair result onto its machine-readable
// trace.
func NewRepairJSON(r *repair.Result) *RepairJSON {
	if r == nil {
		return nil
	}
	muts := make([]string, 0, len(r.Mutations))
	for _, m := range r.Mutations {
		muts = append(muts, m.String())
	}
	return &RepairJSON{
		Repaired:         r.Repaired,
		Exhaustive:       r.Exhaustive,
		ExhaustedGrammar: r.ExhaustedGrammar,
		FinalTier:        r.FinalTier,
		Mutations:        muts,
		Iterations:       r.Iterations,
	}
}

// BusJSON describes one synthesized bus.
type BusJSON struct {
	Name     string   `json:"name"`
	Width    int      `json:"width"`
	Protocol string   `json:"protocol"`
	Lines    int      `json:"lines"`
	Channels []string `json:"channels"`
}

// PointJSON is one design-space point of a sweep response.
type PointJSON struct {
	Width         int     `json:"width"`
	Protocol      string  `json:"protocol"`
	Robust        bool    `json:"robust,omitempty"`
	Parity        bool    `json:"parity,omitempty"`
	Pins          int     `json:"pins"`
	Feasible      bool    `json:"feasible"`
	WorstExec     int64   `json:"worst_exec"`
	InterfaceArea float64 `json:"interface_area"`
}

func newPointJSON(p explore.Point) PointJSON {
	return PointJSON{
		Width:         p.Width,
		Protocol:      p.Protocol.String(),
		Robust:        p.Robust,
		Parity:        p.Parity,
		Pins:          p.Pins,
		Feasible:      p.Feasible,
		WorstExec:     p.WorstExec,
		InterfaceArea: p.InterfaceArea,
	}
}

// ResultJSON is the body of a completed query: everything in it is a
// pure function of (spec, op, options), so the encoded bytes are safe
// to cache and replay verbatim.
type ResultJSON struct {
	Op       string `json:"op"`
	SpecHash string `json:"spec_hash"`
	Key      string `json:"key"`
	System   string `json:"system"`

	// Synthesize / verify / repair results.
	Buses  []BusJSON   `json:"buses,omitempty"`
	Verify *VerifyJSON `json:"verify,omitempty"`
	Repair *RepairJSON `json:"repair,omitempty"`
	// VHDLSHA256 digests the refined system's emitted VHDL — proof of
	// byte-identical refinement without shipping the full text.
	VHDLSHA256 string `json:"vhdl_sha256,omitempty"`
	VHDLBytes  int    `json:"vhdl_bytes,omitempty"`

	// Sweep results.
	Points []PointJSON `json:"points,omitempty"`
	Pareto []PointJSON `json:"pareto,omitempty"`
}

func busesJSON(rep *core.Report) []BusJSON {
	var out []BusJSON
	for _, br := range rep.Buses {
		b := BusJSON{
			Name:     br.Bus.Name,
			Width:    br.Bus.Width,
			Protocol: br.Bus.Protocol.String(),
			Lines:    br.Bus.TotalLines(),
		}
		for _, c := range br.Bus.Channels {
			b.Channels = append(b.Channels, c.Name)
		}
		out = append(out, b)
	}
	return out
}
