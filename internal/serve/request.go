package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/busgen"
	"repro/internal/core"
	"repro/internal/flc"
	"repro/internal/hdl"
	"repro/internal/spec"
	"repro/internal/workloads"
)

// Ops accepted by the daemon.
const (
	OpSynthesize = "synthesize"
	OpVerify     = "verify"
	OpRepair     = "repair"
	OpSweep      = "sweep"
)

// Options is the request-level view of core.Options: the scalar knobs a
// client may set, in one fixed JSON shape. Workers is the only field
// excluded from the cache key — the engine's results are
// worker-invariant, so two requests differing only in Workers must
// share one cache entry.
type Options struct {
	// Protocol selects the bus protocol: "" or "full" | "half".
	Protocol string `json:"protocol,omitempty"`
	// ForceWidth skips bus generation and forces every bus to this
	// width (0 = run bus generation).
	ForceWidth int  `json:"force_width,omitempty"`
	Arbitrate  bool `json:"arbitrate,omitempty"`
	Robust     bool `json:"robust,omitempty"`
	Parity     bool `json:"parity,omitempty"`
	// TimeoutClocks and MaxRetries tune hardened protocols (0 =
	// protogen defaults).
	TimeoutClocks int64 `json:"timeout_clocks,omitempty"`
	MaxRetries    int   `json:"max_retries,omitempty"`
	// Verify bounds (ops verify and repair always verify; synthesize
	// verifies when Verify is set).
	Verify       bool `json:"verify,omitempty"`
	VerifyDepth  int  `json:"verify_depth,omitempty"`
	VerifyDrops  int  `json:"verify_drops,omitempty"`
	VerifyStates int  `json:"verify_states,omitempty"`
	// VerifyMemBudgetMB bounds the checker's estimated hot-state bytes
	// in MiB (verify.Config.MemBudget); past it, sealed BFS layers spill
	// to disk. It does not bound the job's memory. Verdicts are
	// byte-identical at any budget, so — like Workers — it is excluded
	// from the cache key.
	VerifyMemBudgetMB int `json:"verify_mem_budget_mb,omitempty"`
	// VerifyLossy runs the checker's hash-compaction (bitstate) mode.
	// Result-affecting, hence part of the cache key.
	VerifyLossy bool `json:"verify_lossy,omitempty"`
	// Repair bounds (op repair).
	RepairBudget int `json:"repair_budget,omitempty"`
	RepairTiers  int `json:"repair_tiers,omitempty"`
	// Sweep bounds (op sweep).
	MinWidth      int  `json:"min_width,omitempty"`
	MaxWidth      int  `json:"max_width,omitempty"`
	IncludeRobust bool `json:"include_robust,omitempty"`
	// Workers caps each parallel loop's goroutines. At 0 the checker's
	// loops take every CPU no other job is using, and the sweep grid
	// and bus generation's width trials, too short to pay for a second
	// worker, run on the job's own CPU. Results are byte-identical at
	// any value; excluded from the cache key.
	Workers int `json:"workers,omitempty"`
}

// protocol resolves the Protocol name.
func (o Options) protocol() (spec.Protocol, error) {
	switch o.Protocol {
	case "", "full":
		return spec.FullHandshake, nil
	case "half":
		return spec.HalfHandshake, nil
	default:
		return 0, fmt.Errorf("unknown protocol %q (want full | half)", o.Protocol)
	}
}

// coreOptions lowers the request options for one op. Verify/repair ops
// force their flag so the op alone fixes what runs.
func (o Options) coreOptions(op string) (core.Options, error) {
	p, err := o.protocol()
	if err != nil {
		return core.Options{}, err
	}
	opts := core.Options{
		// Bus generation's width trials take well under a millisecond
		// and measured slower at two workers than at one, so by default
		// they run on the job's own CPU; a non-zero Workers replaces it.
		Bus:           busgen.Config{Protocol: p, Workers: 1},
		ForceWidth:    o.ForceWidth,
		Arbitrate:     o.Arbitrate,
		Robust:        o.Robust,
		Parity:        o.Parity,
		TimeoutClocks: o.TimeoutClocks,
		MaxRetries:    o.MaxRetries,
		Workers:       o.Workers,
		Verify:        o.Verify,
		VerifyDepth:   o.VerifyDepth,
		VerifyDrops:   o.VerifyDrops,
		VerifyStates:  o.VerifyStates,
		RepairBudget:  o.RepairBudget,
		RepairTiers:   o.RepairTiers,
	}
	opts.VerifyMemBudget = int64(o.VerifyMemBudgetMB) << 20
	opts.VerifyLossy = o.VerifyLossy
	switch op {
	case OpVerify:
		opts.Verify = true
	case OpRepair:
		opts.Repair = true
	}
	return opts, nil
}

// canonical renders the options for hashing: Workers and the memory
// budget zeroed (results are worker- and budget-invariant), fixed
// field order via the struct encoding.
func (o Options) canonical() []byte {
	o.Workers = 0
	o.VerifyMemBudgetMB = 0
	b, err := json.Marshal(o)
	if err != nil {
		// Options is a closed struct of scalars; Marshal cannot fail.
		panic("serve: canonical options: " + err.Error())
	}
	return b
}

// maxVerifyStates is the largest state bound a request may ask for, so
// that no one request can explore until the daemon runs out of memory.
// Five million is the largest bound any recorded run uses (the drop-2
// robust PQ space holds 4,108,347 states).
const maxVerifyStates = 5_000_000

// Request is one query: a spec (inline text or named workload) plus an
// op and options.
type Request struct {
	Op string `json:"op"`
	// Workload names a built-in system: pq | pq-solo | mesh[-N] |
	// flc | ethernet[-N] | answering[-N].
	Workload string `json:"workload,omitempty"`
	// Spec is inline .sys source; exactly one of Workload and Spec
	// must be set.
	Spec    string  `json:"spec,omitempty"`
	Options Options `json:"options"`
}

func (r *Request) validate() error {
	switch r.Op {
	case OpSynthesize, OpVerify, OpRepair, OpSweep:
	default:
		return fmt.Errorf("unknown op %q (want synthesize | verify | repair | sweep)", r.Op)
	}
	if (r.Workload == "") == (r.Spec == "") {
		return fmt.Errorf("exactly one of workload and spec must be set")
	}
	if _, err := r.Options.protocol(); err != nil {
		return err
	}
	// A bus's DATA lines are a bit_vector, so no width option may pass
	// the widest one; the sweep sizes its grid by the width range.
	o := r.Options
	for _, w := range []struct {
		name string
		v    int
	}{{"force_width", o.ForceWidth}, {"min_width", o.MinWidth}, {"max_width", o.MaxWidth}} {
		if w.v > spec.MaxVectorWidth {
			return fmt.Errorf("%s %d is wider than %d bits", w.name, w.v, spec.MaxVectorWidth)
		}
	}
	// The checker refuses a drop budget its states cannot hold, but only
	// once a job runs; refusing it here keeps it out of every cache
	// lookup, so no entry an older build stored for it can be served.
	if o.VerifyDrops < 0 || o.VerifyDrops > math.MaxInt16 {
		return fmt.Errorf("verify_drops %d is outside 0 to %d", o.VerifyDrops, math.MaxInt16)
	}
	if o.VerifyStates > maxVerifyStates {
		return fmt.Errorf("verify_states %d is above the limit of %d", o.VerifyStates, maxVerifyStates)
	}
	// The checker reads a negative state bound as its default and a
	// negative depth as unbounded, but each value keys apart, so each
	// would compute and cache the same verdict again.
	for _, b := range []struct {
		name string
		v    int
	}{{"verify_states", o.VerifyStates}, {"verify_depth", o.VerifyDepth}} {
		if b.v < 0 {
			return fmt.Errorf("%s %d is negative", b.name, b.v)
		}
	}
	return nil
}

// resolve builds a fresh system for the request. Every call returns a
// newly constructed (or newly parsed) system: synthesis mutates its
// input, so resolved systems are single-use.
func (r *Request) resolve() (sys *spec.System, err error) {
	if r.Spec != "" {
		sys, err = hdl.Parse(r.Spec)
		if err != nil {
			return nil, fmt.Errorf("parse spec: %w", err)
		}
		return sys, nil
	}
	// Workload constructors panic on out-of-range sizes; surface those
	// as request errors, not daemon crashes.
	defer func() {
		if p := recover(); p != nil {
			sys, err = nil, fmt.Errorf("workload %q: %v", r.Workload, p)
		}
	}()
	name, n := splitWorkload(r.Workload)
	switch name {
	case "pq":
		sys, _ = workloads.PQ()
	case "pq-solo", "pqsolo":
		sys, _ = workloads.PQSolo()
	case "mesh":
		sys = workloads.Mesh(defaultN(n, 3))
	case "flc":
		sys = flc.New(flc.DefaultConfig()).Sys
	case "ethernet":
		sys = workloads.Ethernet(defaultN(n, 2))
	case "answering":
		sys = workloads.AnsweringMachine(defaultN(n, 2))
	default:
		return nil, fmt.Errorf("unknown workload %q (want pq | pq-solo | mesh[-N] | flc | ethernet[-N] | answering[-N])", r.Workload)
	}
	return sys, nil
}

// splitWorkload parses an optional -N size suffix: "mesh-4" → ("mesh", 4).
func splitWorkload(w string) (string, int) {
	if i := strings.LastIndexByte(w, '-'); i > 0 {
		if n, err := strconv.Atoi(w[i+1:]); err == nil {
			return w[:i], n
		}
	}
	return w, 0
}

func defaultN(n, def int) int {
	if n > 0 {
		return n
	}
	return def
}

// Key is the content address of a request: sha256 over a framed
// encoding of the canonical spec digest, the op, and the canonical
// options. Requests that resolve to hash-identical systems with the
// same op and options share one key — and therefore one cached result
// and one in-flight job.
type Key [sha256.Size]byte

// String renders the key as lowercase hex.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// key computes the request's content address plus the spec's own
// digest, and returns the system it resolved and hashed: the hash must
// cover what the request means, not how it was spelled (workload name
// vs identical inline text). Hashing leaves the system untouched, so a
// miss hands it to its job and the spec is parsed once per request.
func (r *Request) key() (Key, spec.Digest, *spec.System, error) {
	sys, err := r.resolve()
	if err != nil {
		return Key{}, spec.Digest{}, nil, err
	}
	sh := spec.Hash(sys)
	h := sha256.New()
	// The frame must change whenever what a body holds does, so a daemon
	// upgrade can never serve a stale body from a persistent store. v2:
	// verify bodies gained the reachable-set fingerprint. v3: the checker
	// keys states on every array element and hashes rows anew, which
	// moves state counts and every fingerprint.
	h.Write([]byte("ifsynd/v3\x00"))
	h.Write(sh[:])
	h.Write([]byte{0})
	h.Write([]byte(r.Op))
	h.Write([]byte{0})
	h.Write(r.Options.canonical())
	var k Key
	h.Sum(k[:0])
	return k, sh, sys, nil
}

// reqDigest is a request's digest: sha256 over its fields as decoded.
// It indexes the RAM cache beside the Key, so a repeated request is
// answered without resolving or hashing its spec again.
type reqDigest [sha256.Size]byte

// digestFrame versions the digest's encoding.
const digestFrame = "ifsynd/request/v1\x00"

// digest frames exactly the fields key is a function of: the op, the
// workload name and the spec text, each length-prefixed so that no two
// field tuples give the same bytes, then the canonical options. key
// resolves the spec deterministically and spec.Hash is canonical, so
// equal digests mean equal keys. The converse does not hold: a
// differently spelled spec with the same meaning has its own digest
// and reaches the shared entry through its key.
func (r *Request) digest() reqDigest {
	opts := r.Options.canonical()
	b := make([]byte, 0, len(digestFrame)+3*binary.MaxVarintLen64+len(r.Op)+len(r.Workload)+len(r.Spec)+len(opts))
	b = append(b, digestFrame...)
	for _, f := range [...]string{r.Op, r.Workload, r.Spec} {
		b = binary.AppendUvarint(b, uint64(len(f)))
		b = append(b, f...)
	}
	return sha256.Sum256(append(b, opts...))
}
