// Package verify is an exhaustive, bounded model checker for the
// protocol processes that protocol generation emits. It steps the
// simulator's own compiled programs (sim.Engine) as communicating FSMs,
// explores the product state space with a parallel breadth-first search
// over a deduplicating state store (with a sleep-set partial-order
// reduction), and checks deadlock-freedom, driver mutual exclusion on
// shared bus lines, bounded-response liveness and end-to-end data
// delivery. Any violation is reported with a minimal interleaving
// Counterexample that replays deterministically through internal/sim.
//
// The checker and the simulator share one compiler and one read side —
// instruction stream, compiled expressions and conditions, lvalue
// rebuild and the rule on which stores may create a local (sim.Frame) —
// so statement semantics cannot drift between the two; only the stores
// differ, because the checker shares values between states and never
// mutates one in place. Its scheduling model
// is a sound abstraction of the simulator's: within a delta cycle any
// enabled process may run next (the checker branches over all of them,
// a superset of the simulator's fixed process order), while relative
// timeout ordering is preserved exactly by per-process remaining-clock
// counters and a deterministic quiescent tick.
package verify

import (
	"context"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"repro/internal/sim"
	"repro/internal/spec"
)

// Config parameterizes a model-checking run.
type Config struct {
	// MaxDepth bounds the BFS depth (product transitions along any one
	// path); 0 means unbounded — MaxStates is then the only limit.
	MaxDepth int
	// MaxStates bounds the number of distinct stored states; 0 means the
	// default of 250000. Exceeding it makes the report Incomplete.
	MaxStates int
	// Workers is the exploration worker count; 0 uses every CPU. When
	// CheckCtx's context carries a par.Share it is a cap instead, and
	// each BFS layer expands on the CPUs the share has idle. The
	// verdict, state count and transition count are identical at any
	// worker count: layers are expanded in parallel but merged in a
	// fixed order.
	Workers int
	// MaxDrops is the wire-fault budget: along any one path, at most
	// this many tracked bus-line transitions may be dropped. 0 checks
	// the fault-free system only; CheckCtx refuses a budget outside 0
	// to math.MaxInt16.
	MaxDrops int
	// DropFields names the record fields whose transitions may be
	// dropped; empty means START and DONE.
	DropFields []string
	// MaxViolations caps distinct reported violations; 0 means 8.
	// Hitting the cap stops the search (Incomplete).
	MaxViolations int
	// NoReduction disables sleep-set partial-order reduction. The
	// verdict must not change — only the state count (used by tests as
	// a soundness cross-check).
	NoReduction bool
	// SkipLiveness disables the bounded-response cycle check.
	SkipLiveness bool
	// AbortVars lists abort-counter finals keys ("Module.Var", see
	// protogen.Refinement.AbortKeys). A run that signalled a clean
	// abort is excused from the data-delivery check.
	AbortVars []string
	// MaxClocks bounds the golden simulation and counterexample
	// replays; 0 means 1000000.
	MaxClocks int64
	// MemBudget bounds the estimated bytes of hot (unsealed) states:
	// each counts its row plus its hot index entry. 0 keeps every state
	// in RAM (the classic mode). With a budget, whole BFS layers beyond
	// it seal to a disk spill store under SpillDir. It does not bound
	// the process: every state's node bookkeeping stays in RAM, sealed
	// or not, and the liveness edges, each layer's worker outputs, the
	// value table and the spill tier's Bloom filter are not counted.
	// The verdict, state count and transition count are byte-identical
	// at any budget: the spill tier confirms candidates exactly like
	// the hot tier.
	MemBudget int64
	// SpillDir is where spill scratch files live (a fresh subdirectory
	// is created per run and removed afterwards); "" uses the system
	// temp directory. Only consulted when MemBudget > 0.
	SpillDir string
	// Lossy switches the dedup store to hash-compaction mode: a 64-bit
	// hash match is accepted without byte confirmation (SPIN bitstate
	// style). Two distinct states per ~2^64 pairs may merge, silently
	// omitting part of the space — the Report quantifies that as
	// OmissionProb. Never enabled implicitly.
	Lossy bool
	// Progress, when non-nil, is called after each merged BFS layer with
	// the stored-state count and current depth. It runs on the sequential
	// merge path (never concurrently) and must return quickly — the
	// search blocks on it. It observes progress only; it cannot alter
	// the verdict, so two runs differing only in Progress stay
	// byte-identical.
	Progress func(states, depth int) `json:"-"`
}

// Kind classifies a violation.
type Kind int

// Violation kinds.
const (
	// Deadlock: a reachable state with every unfinished process blocked
	// forever while foreground work remains.
	Deadlock Kind = iota
	// DriverConflict: two processes drive a shared bus line in a way
	// the handshake should make mutually exclusive.
	DriverConflict
	// Livelock: a cycle along which a transaction strobe never returns
	// to idle — bounded response is violated.
	Livelock
	// Corruption: every foreground process finished without signalling
	// an abort, but a module variable differs from the golden
	// fault-free run — data was silently lost or corrupted.
	Corruption
)

func (k Kind) String() string {
	switch k {
	case Deadlock:
		return "deadlock"
	case DriverConflict:
		return "driver-conflict"
	case Livelock:
		return "bounded-response"
	case Corruption:
		return "data-corruption"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Violation is one verified property failure with its counterexample.
type Violation struct {
	Kind    Kind
	Message string
	Cex     *Counterexample
}

// Report summarizes one model-checking run.
type Report struct {
	Procs            int
	States           int
	Transitions      int64
	Depth            int
	Incomplete       bool
	IncompleteReason string
	Violations       []Violation
	// GoldenClocks is the fault-free simulation's duration (the
	// delivery-check reference), -1 if the golden run itself failed.
	GoldenClocks int64
	Elapsed      time.Duration
	// Fingerprint is an order-independent digest of the reachable
	// hash set: identical across worker counts and memory budgets, it
	// is the checkable witness behind the persistent verify cache.
	Fingerprint string
	// SpilledStates/SpillBytes report the cold tier's share when a
	// MemBudget was set (both zero otherwise). They describe resource
	// use only — never the verdict — so the serve layer excludes them
	// from cached result bodies.
	SpilledStates int
	SpillBytes    int64
	// Lossy echoes Config.Lossy; OmissionProb then bounds the chance
	// that any distinct reachable states were merged by a 64-bit hash
	// collision (n(n-1)/2^65 for n stored states).
	Lossy        bool
	OmissionProb float64
}

// Clean reports a complete run with no violations.
func (r *Report) Clean() bool {
	return !r.Incomplete && len(r.Violations) == 0
}

// Format renders a human-readable summary.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "explored %d states, %d transitions (depth %d, %d procs, %s)\n",
		r.States, r.Transitions, r.Depth, r.Procs, r.Elapsed.Round(time.Millisecond))
	if r.SpilledStates > 0 {
		fmt.Fprintf(&b, "spilled %d states to disk (%.1f MiB)\n",
			r.SpilledStates, float64(r.SpillBytes)/(1<<20))
	}
	if r.Lossy {
		fmt.Fprintf(&b, "lossy hash-compaction mode: omission probability <= %.3g\n", r.OmissionProb)
	}
	if r.Incomplete {
		fmt.Fprintf(&b, "INCOMPLETE: %s\n", r.IncompleteReason)
	}
	if len(r.Violations) == 0 {
		b.WriteString("no violations found\n")
		return b.String()
	}
	fmt.Fprintf(&b, "%d violation(s):\n", len(r.Violations))
	for i, v := range r.Violations {
		fmt.Fprintf(&b, "[%d] %s: %s\n", i+1, v.Kind, v.Message)
		if v.Cex != nil {
			b.WriteString(v.Cex.Format())
		}
	}
	return b.String()
}

func withDefaults(cfg Config) Config {
	if cfg.MaxStates <= 0 {
		cfg.MaxStates = 250_000
	}
	if cfg.MaxViolations <= 0 {
		cfg.MaxViolations = 8
	}
	if cfg.MaxClocks <= 0 {
		cfg.MaxClocks = 1_000_000
	}
	return cfg
}

// Check explores the system's product state space exhaustively (within
// the configured bounds) and reports every property violation with a
// minimal, replayable counterexample.
//
// The system is compiled once, by sim.NewEngine; a system the simulator
// cannot compile is an error. That Engine runs the golden fault-free
// simulation first — its finals are the data-delivery reference and its
// duration bounds counterexample replays — and supplies the programs the
// search steps. If the golden run itself fails, the delivery check is
// skipped — the search will find the underlying defect directly.
func Check(sys *spec.System, cfg Config) (*Report, error) {
	return CheckCtx(context.Background(), sys, cfg)
}

// CheckCtx is Check with cooperative cancellation: once ctx is done the
// search stops between expansions and CheckCtx returns ctx.Err() with a
// nil report. A canceled run never yields a partial Report — callers
// (the serve layer's result cache in particular) must not see, let
// alone store, a verdict whose bounds were "whenever the client hung
// up". Cancellation reaches mid-layer via par.ForCtx, so even one huge
// BFS layer aborts promptly.
func CheckCtx(ctx context.Context, sys *spec.System, cfg Config) (*Report, error) {
	// A state holds its remaining drop budget in 16 bits; a budget past
	// them would silently check another one.
	if cfg.MaxDrops < 0 || cfg.MaxDrops > math.MaxInt16 {
		return nil, fmt.Errorf("verify: drop budget %d is outside 0 to %d", cfg.MaxDrops, math.MaxInt16)
	}
	cfg = withDefaults(cfg)
	start := time.Now()
	eng, err := sim.NewEngine(sys)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	m, err := newMachine(sys, cfg, eng)
	if err != nil {
		return nil, err
	}

	goldenClocks := int64(-1)
	var goldenFinals map[string]sim.Value
	replayClocks := cfg.MaxClocks
	if res, runErr := eng.Run(sim.Config{MaxClocks: cfg.MaxClocks}); runErr == nil {
		goldenClocks = res.Clocks
		if b := res.Clocks*4 + 2000; b < replayClocks {
			replayClocks = b
		}
		slotOf := make(map[string]int, len(m.gname))
		for i, n := range m.gname {
			slotOf[n] = i
		}
		m.expected = make([]sim.Value, len(m.globals))
		goldenFinals = res.Finals
		for k, v := range res.Finals {
			if slot, ok := slotOf[k]; ok {
				m.expected[slot] = v
			}
		}
		for _, k := range cfg.AbortVars {
			if slot, ok := slotOf[k]; ok {
				m.abortSlots = append(m.abortSlots, slot)
			}
		}
	}

	sr := newSearcher(m)
	sr.ctx = ctx
	if cfg.MemBudget > 0 {
		dir := cfg.SpillDir
		if dir == "" {
			dir = os.TempDir()
		} else if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("verify: spill dir: %w", err)
		}
		sub, err := os.MkdirTemp(dir, "ifverify-spill-*")
		if err != nil {
			return nil, fmt.Errorf("verify: spill dir: %w", err)
		}
		sp, err := newSpillStore(sub, m.lay.size)
		if err != nil {
			return nil, err
		}
		defer sp.close()
		sr.store.spill = sp
	}
	if err := sr.run(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !cfg.SkipLiveness {
		if err := sr.checkLiveness(); err != nil {
			return nil, err
		}
	}

	rep := &Report{
		Procs:        len(m.progs),
		States:       sr.count(),
		Transitions:  sr.transitions,
		Depth:        int(sr.depth),
		GoldenClocks: goldenClocks,
		Fingerprint:  fmt.Sprintf("%016x-%016x", sr.fpXor, sr.fpSum),
		Lossy:        cfg.Lossy,
	}
	if sp := sr.store.spill; sp != nil {
		rep.SpilledStates = sp.states()
		rep.SpillBytes = sp.bytes()
	}
	if cfg.Lossy {
		n := float64(sr.count())
		p := n * (n - 1) / math.Pow(2, 65)
		if p > 1 {
			p = 1
		}
		rep.OmissionProb = p
	}
	if sr.incomplete != "" {
		rep.Incomplete = true
		rep.IncompleteReason = sr.incomplete
	}
	for _, site := range sr.sites {
		cex, err := buildCex(m, sr, site, goldenFinals, cfg.AbortVars, replayClocks)
		if err != nil {
			return nil, fmt.Errorf("verify: rendering counterexample: %w", err)
		}
		rep.Violations = append(rep.Violations, Violation{Kind: site.kind, Message: site.msg, Cex: cex})
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}
