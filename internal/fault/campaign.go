package fault

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/spec"
)

// Outcome classifies one faulty run against the fault-free golden run.
type Outcome int

// Outcomes, ordered from best to worst.
const (
	// Survived: the run completed and every final variable value
	// matches the golden run — the protocol absorbed the fault.
	Survived Outcome = iota
	// AbortedCleanly: finals differ from golden, but the hardened
	// accessors reported the loss on their abort counters; no silent
	// corruption, no hang.
	AbortedCleanly
	// Corrupted: the run completed (or crashed on a poisoned value)
	// with wrong finals and no abort report — the worst kind of
	// failure, silent data corruption.
	Corrupted
	// Deadlocked: the run hung (a deadlock, a clock-budget blowout, a
	// delta-cycle livelock or a runaway zero-delay loop).
	Deadlocked
	numOutcomes
)

func (o Outcome) String() string {
	switch o {
	case Survived:
		return "survived"
	case AbortedCleanly:
		return "aborted-cleanly"
	case Corrupted:
		return "corrupted"
	case Deadlocked:
		return "deadlocked"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// Config parameterizes a campaign.
type Config struct {
	// Runs is the number of seeded faulty runs; 0 means 20.
	Runs int
	// Seed seeds the campaign; run i draws its faults from a sub-seed
	// derived deterministically (and statelessly) from it.
	Seed int64
	// FaultsPerRun is the number of faults injected per run; 0 means 1.
	FaultsPerRun int
	// Classes restricts fault classes; nil means all. A non-nil empty
	// slice is a configuration error (it would draw no faults at all),
	// as is any class outside the known range.
	Classes []Class
	// Window is the fault-arming event window (see Plan.Window).
	Window int64
	// Sim is the base simulator configuration shared by all runs. Its
	// Mutate and OnEvent hooks must be nil: every faulty run installs
	// its injector as Mutate, and runs that are skipped or resumed from
	// a golden checkpoint are not simulated from time 0, so an observer
	// would miss their events. A Schedule hook must be a pure function
	// of its arguments, for the same reason.
	Sim sim.Config
	// MaxClocks bounds each faulty run; 0 derives 16x the golden run's
	// clocks (plus slack), so a livelocked run terminates quickly.
	MaxClocks int64
	// AbortVars names the Result.Finals entries holding abort counters
	// ("Module.Var", see protogen.Refinement.AbortKeys). They are
	// excluded from the finals comparison; a nonzero counter turns a
	// mismatch into AbortedCleanly.
	AbortVars []string
	// Workers bounds campaign parallelism; 0 means GOMAXPROCS.
	Workers int
	// MaxExemplars bounds per-outcome exemplar retention in the report:
	// for each outcome the first MaxExemplars runs (by run index) are
	// kept as full RunResults, everything else is only counted. 0 means
	// DefaultExemplars. This is what lets a 10⁷-run campaign hold its
	// report in O(classes + exemplars) memory instead of O(runs).
	MaxExemplars int
}

// DefaultExemplars is the per-outcome exemplar retention bound.
const DefaultExemplars = 4

// validate rejects configurations that would otherwise silently run a
// meaningless campaign (zero-fault runs, no runs, inverted windows, hooks
// the golden reference cannot honour).
func (cfg *Config) validate() error {
	if cfg.Sim.Mutate != nil {
		return errors.New("fault: Sim.Mutate is set, but every faulty run replaces it with its injector")
	}
	if cfg.Sim.OnEvent != nil {
		return errors.New("fault: Sim.OnEvent is set, but skipped and resumed runs are not simulated from time 0")
	}
	if cfg.Runs < 0 {
		return fmt.Errorf("fault: negative Runs %d", cfg.Runs)
	}
	if cfg.FaultsPerRun < 0 {
		return fmt.Errorf("fault: negative FaultsPerRun %d", cfg.FaultsPerRun)
	}
	if cfg.Window < 0 {
		return fmt.Errorf("fault: negative fault window %d", cfg.Window)
	}
	if cfg.MaxClocks < 0 {
		return fmt.Errorf("fault: negative MaxClocks %d", cfg.MaxClocks)
	}
	if cfg.MaxExemplars < 0 {
		return fmt.Errorf("fault: negative MaxExemplars %d", cfg.MaxExemplars)
	}
	if cfg.Classes != nil && len(cfg.Classes) == 0 {
		return errors.New("fault: Classes is empty (nil means all classes)")
	}
	for _, c := range cfg.Classes {
		if c < 0 || c >= numClasses {
			return fmt.Errorf("fault: unknown fault class %d", int(c))
		}
	}
	return nil
}

// RunResult is the outcome of one faulty run.
type RunResult struct {
	Run     int
	Seed    int64
	Faults  []Fault
	Outcome Outcome
	// Clocks is the faulty run's simulated duration (0 if it failed to
	// complete).
	Clocks int64
	// Aborts is the sum over AbortVars at the end of the run.
	Aborts int64
	// Err holds the simulator error for hung or crashed runs.
	Err string
}

// Report aggregates a campaign. Classification is folded incrementally
// as runs complete: the report never materializes per-run state beyond
// the bounded exemplar lists, so its memory footprint is independent of
// the run count.
type Report struct {
	// Golden is the fault-free reference run.
	Golden *sim.Result
	// Runs is the number of faulty runs executed.
	Runs int
	// Totals counts runs per outcome.
	Totals map[Outcome]int
	// ByClass counts runs per fault class and outcome; a run injecting
	// several classes is counted once under each.
	ByClass map[Class]map[Outcome]int
	// Exemplars holds, per outcome, the first MaxExemplars runs (by run
	// index) that produced it — the counterexamples a repair loop or a
	// human debugger starts from.
	Exemplars map[Outcome][]RunResult
}

// runSeed derives run i's fault seed from the campaign seed via a
// splitmix64 step. Unlike drawing seeds from one sequential generator,
// the derivation is stateless, so a worker can seed run i without
// having drawn seeds 0..i-1 — the property that lets chunks of runs
// execute in any order on any worker count and still be byte-identical.
func runSeed(campaignSeed int64, run int) int64 {
	z := uint64(campaignSeed) + (uint64(run)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	// Keep seeds non-negative like the rand.Int63 draws they replace.
	return int64(z >> 1)
}

// chunkAgg is one seed-chunk's partial aggregation. Workers fold their
// chunk locally with no sharing; the campaign merges chunks in index
// order, which makes every report field independent of worker count and
// scheduling.
type chunkAgg struct {
	totals    [numOutcomes]int
	byClass   [numClasses][numOutcomes]int
	exemplars [numOutcomes][]RunResult
}

// Campaign runs a seeded fault-injection campaign: one golden run, then
// cfg.Runs faulty runs sharded in chunks across workers, each injecting
// freshly drawn faults. The system is compiled once (sim.NewEngine) and
// every run borrows a pooled runner. A run simulates only what its
// faults can change: one whose faults never arm takes the golden result,
// and an armed one resumes from the golden run's last checkpoint before
// its first fault arms (see reference). Everything is derived from
// cfg.Seed, so a campaign is reproducible byte for byte at any worker
// count.
func Campaign(sys *spec.System, bus *spec.Bus, cfg Config) (*Report, error) {
	return CampaignCtx(context.Background(), sys, bus, cfg)
}

// CampaignCtx is Campaign with cooperative cancellation: once ctx is
// done no further seed chunk starts and CampaignCtx returns ctx.Err()
// with a nil report. A canceled campaign never yields partial counts —
// the per-class probabilities it feeds would silently change meaning.
func CampaignCtx(ctx context.Context, sys *spec.System, bus *spec.Bus, cfg Config) (*Report, error) {
	if bus == nil || bus.Signal == nil {
		return nil, fmt.Errorf("fault: bus is not refined (no bus signal; run protocol generation first)")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Runs == 0 {
		cfg.Runs = 20
	}
	maxEx := cfg.MaxExemplars
	if maxEx == 0 {
		maxEx = DefaultExemplars
	}

	eng, err := sim.NewEngine(sys)
	if err != nil {
		return nil, fmt.Errorf("fault: %w", err)
	}
	ref, err := newReference(eng, &cfg)
	if err != nil {
		return nil, err
	}

	// Chunk size balances dispatch overhead against load balance; the
	// report is invariant to it (chunks merge in index order), so it can
	// depend on the worker count without costing determinism.
	chunk := cfg.Runs / (8 * effectiveWorkers(cfg.Workers))
	if chunk < 1 {
		chunk = 1
	}
	if chunk > 4096 {
		chunk = 4096
	}
	partials := make([]chunkAgg, (cfg.Runs+chunk-1)/chunk)

	cerr := par.ForChunksCtx(ctx, cfg.Runs, cfg.Workers, chunk, func(lo, hi int) {
		agg := &partials[lo/chunk]
		// One injector, RNG and fault buffer serve the whole chunk:
		// Reset rearms them per run without allocating, and the
		// simulator configuration (hook binding included) is built
		// once. Fault draws and injection state are byte-identical to
		// fresh per-run objects.
		inj := &Injector{}
		rng := rand.New(&smSource{})
		var faults []Fault
		scfg := cfg.Sim
		scfg.MaxClocks = ref.maxClocks
		// Classification reads only Clocks and Finals; skip the rest of
		// the Result.
		scfg.FinalsOnly = true
		inj.Attach(&scfg)
		for i := lo; i < hi; i++ {
			seed := runSeed(cfg.Seed, i)
			faults = randomizeInto(faults, rng, bus, Plan{
				Seed:    seed,
				Count:   cfg.FaultsPerRun,
				Classes: cfg.Classes,
				Window:  cfg.Window,
			})
			rr := RunResult{Run: i, Seed: seed, Faults: faults}
			ref.play(eng, inj, scfg, &rr)
			agg.totals[rr.Outcome]++
			var seen [numClasses]bool
			for _, f := range rr.Faults {
				if seen[f.Class] {
					continue
				}
				seen[f.Class] = true
				agg.byClass[f.Class][rr.Outcome]++
			}
			if len(agg.exemplars[rr.Outcome]) < maxEx {
				// The fault buffer is recycled next run; an exemplar
				// that outlives the loop gets its own copy.
				rr.Faults = append([]Fault(nil), faults...)
				agg.exemplars[rr.Outcome] = append(agg.exemplars[rr.Outcome], rr)
			}
		}
	})
	if cerr != nil {
		return nil, cerr
	}

	rep := &Report{
		Golden:    ref.res,
		Runs:      cfg.Runs,
		Totals:    make(map[Outcome]int),
		ByClass:   make(map[Class]map[Outcome]int),
		Exemplars: make(map[Outcome][]RunResult),
	}
	for ci := range partials {
		agg := &partials[ci]
		for o := Outcome(0); o < numOutcomes; o++ {
			if n := agg.totals[o]; n > 0 {
				rep.Totals[o] += n
			}
			// Chunks are merged in index order and each chunk keeps its
			// exemplars in run order, so the global list is exactly the
			// first maxEx runs with this outcome.
			for _, rr := range agg.exemplars[o] {
				if len(rep.Exemplars[o]) < maxEx {
					rep.Exemplars[o] = append(rep.Exemplars[o], rr)
				}
			}
			for c := Class(0); c < numClasses; c++ {
				if n := agg.byClass[c][o]; n > 0 {
					if rep.ByClass[c] == nil {
						rep.ByClass[c] = make(map[Outcome]int)
					}
					rep.ByClass[c][o] += n
				}
			}
		}
	}
	return rep, nil
}

// reference is the fault-free golden run and what a campaign learns
// from it. A faulty run replays the golden run event for event until
// its first fault arms: injection is a pure function of the event
// sequence, and nothing is mutated before a fault arms. So a run whose
// faults never arm ends exactly as the golden run did, and an armed run
// is the golden run up to the flush in which its first fault arms. The
// golden run records both facts: a recording Injector logs the hook
// call of every changed proposal of every record-signal field, and the
// Engine captures checkpoints at evenly spaced delta-cycle boundaries.
type reference struct {
	res       *sim.Result
	abortVars []string
	// maxClocks bounds each faulty run: Config.MaxClocks, or 16x the
	// golden run's clocks plus slack.
	maxClocks int64
	// finals, aborts and outcome classify the golden result, which is
	// also the result of every run whose faults never arm.
	finals  []goldenEntry
	aborts  int64
	outcome Outcome
	// rec recorded the golden run: rec.sigs[s].changes[f] holds the
	// hook call of each changed proposal of field f, ascending.
	rec *Injector
	cps []*sim.Checkpoint
	// counts[k][s][f] is how many of those proposals came before
	// checkpoint k: what a from-scratch injector has counted there.
	counts [][][]int64
}

// newReference runs the golden simulation under cfg.Sim with a
// recording injector and checkpoints.
func newReference(eng *sim.Engine, cfg *Config) (*reference, error) {
	rec := &Injector{record: true}
	gcfg := cfg.Sim
	rec.Attach(&gcfg)
	res, cps, err := eng.RunCheckpointed(gcfg)
	if err != nil {
		return nil, fmt.Errorf("fault: golden run failed: %w", err)
	}
	g := &reference{res: res, abortVars: cfg.AbortVars, maxClocks: cfg.MaxClocks}
	if g.maxClocks <= 0 {
		g.maxClocks = 16*res.Clocks + 4096
	}
	g.finals = goldenFinals(res, cfg.AbortVars)
	g.aborts = sumAborts(res, cfg.AbortVars)
	g.outcome = classifyFinals(g.finals, res, g.aborts)
	if res.Clocks > g.maxClocks {
		// A run from time 0 fails once time passes maxClocks, so under a
		// budget tighter than the golden run a faulty run is neither the
		// golden run nor its continuation: simulate every run from time
		// 0 (resumePoint answers 0 without a recording).
		g.cps = cps[:1]
		return g, nil
	}
	g.rec, g.cps = rec, cps
	g.counts = make([][][]int64, len(cps))
	for k, cp := range cps {
		g.counts[k] = make([][]int64, len(rec.sigs))
		for s := range rec.sigs {
			row := make([]int64, len(rec.sigs[s].changes))
			for f, log := range rec.sigs[s].changes {
				row[f] = int64(sort.Search(len(log), func(j int) bool { return log[j] >= cp.HookCalls() }))
			}
			g.counts[k][s] = row
		}
	}
	return g, nil
}

// resumePoint returns the index of the last checkpoint before the flush
// in which the first of faults arms, or -1 if none ever arms. A fault
// arms at its field's (AfterEvents+1)-th changed proposal.
func (g *reference) resumePoint(faults []Fault) int {
	if g.rec == nil {
		return 0
	}
	arm := int64(-1)
	for _, f := range faults {
		n := max(f.AfterEvents, 0)
		for s := range g.rec.sigs {
			sf := &g.rec.sigs[s]
			if sf.sig.Name != f.Signal {
				continue
			}
			for i, fld := range sf.typ.Fields {
				if log := sf.changes[i]; fld.Name == f.Field && n < int64(len(log)) && (arm < 0 || log[n] < arm) {
					arm = log[n]
				}
			}
		}
	}
	if arm < 0 {
		return -1
	}
	return sort.Search(len(g.cps), func(k int) bool { return g.cps[k].HookCalls() > arm }) - 1
}

// play runs rr's faults and fills in its outcome. If no fault arms, rr
// takes the golden run's and play returns the golden result and k = -1.
// Otherwise play rearms inj with the faults, fast-forwards its counts to
// checkpoint k and resumes cfg (inj attached) from there; it returns the
// result, nil if the run failed.
func (g *reference) play(eng *sim.Engine, inj *Injector, cfg sim.Config, rr *RunResult) (res *sim.Result, k int) {
	k = g.resumePoint(rr.Faults)
	if k < 0 {
		rr.Clocks, rr.Aborts, rr.Outcome = g.res.Clocks, g.aborts, g.outcome
		return g.res, k
	}
	inj.Reset(rr.Faults)
	if k > 0 {
		for s := range g.rec.sigs {
			copy(inj.resolve(g.rec.sigs[s].sig, g.rec.sigs[s].typ).counts, g.counts[k][s])
		}
	}
	res, err := eng.Resume(g.cps[k], cfg)
	if err != nil {
		rr.Err = err.Error()
		rr.Outcome = classifyError(err)
		return nil, k
	}
	rr.Clocks = res.Clocks
	rr.Aborts = sumAborts(res, g.abortVars)
	rr.Outcome = classifyFinals(g.finals, res, rr.Aborts)
	return res, k
}

func effectiveWorkers(workers int) int {
	if workers <= 0 {
		workers = par.DefaultWorkers()
	}
	if workers <= 0 {
		workers = 1
	}
	return workers
}

// classifyError maps a failed run to an outcome: hangs (deadlock,
// clock budget, delta-cycle livelock, runaway zero-delay loop) are
// Deadlocked; anything else crashed on poisoned data and is counted as
// Corrupted.
func classifyError(err error) Outcome {
	var dl *sim.DeadlockError
	var hang *sim.HangError
	if errors.As(err, &dl) || errors.As(err, &hang) {
		return Deadlocked
	}
	return Corrupted
}

func sumAborts(res *sim.Result, abortVars []string) int64 {
	var n int64
	for _, key := range abortVars {
		if iv, ok := res.Finals[key].(sim.IntVal); ok {
			n += iv.V
		}
	}
	return n
}

// goldenEntry is one golden final to compare faulty runs against; the
// abort counters are excluded up front so the per-run comparison is a
// flat scan with no skip-set rebuilding.
type goldenEntry struct {
	key string
	val sim.Value
}

func goldenFinals(golden *sim.Result, abortVars []string) []goldenEntry {
	skip := make(map[string]bool, len(abortVars))
	for _, k := range abortVars {
		skip[k] = true
	}
	entries := make([]goldenEntry, 0, len(golden.Finals))
	for k, gv := range golden.Finals {
		if skip[k] {
			continue
		}
		entries = append(entries, goldenEntry{key: k, val: gv})
	}
	return entries
}

func classifyFinals(entries []goldenEntry, got *sim.Result, aborts int64) Outcome {
	match := true
	for _, e := range entries {
		fv, ok := got.Finals[e.key]
		if !ok || !e.val.Equal(fv) {
			match = false
			break
		}
	}
	switch {
	case match:
		return Survived
	case aborts > 0:
		return AbortedCleanly
	}
	return Corrupted
}

// String renders the report as an aligned per-class outcome table with
// rows in ascending class order, so the output is stable for golden
// tests and CI logs.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign: %d runs, golden %d clocks\n", r.Runs, r.Golden.Clocks)
	outcomes := []Outcome{Survived, AbortedCleanly, Corrupted, Deadlocked}
	fmt.Fprintf(&b, "%-14s", "class")
	for _, o := range outcomes {
		fmt.Fprintf(&b, " %15s", o)
	}
	b.WriteByte('\n')
	classes := make([]Class, 0, len(r.ByClass))
	for c := range r.ByClass {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	for _, c := range classes {
		fmt.Fprintf(&b, "%-14s", c)
		for _, o := range outcomes {
			fmt.Fprintf(&b, " %15d", r.ByClass[c][o])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-14s", "total")
	for _, o := range outcomes {
		fmt.Fprintf(&b, " %15d", r.Totals[o])
	}
	b.WriteByte('\n')
	return b.String()
}

// Format renders the report.
//
// Deprecated: use String.
func (r *Report) Format() string { return r.String() }
