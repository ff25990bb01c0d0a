// Package core is the top-level interface-synthesis API, composing the
// stages of Narayan & Gajski's DAC'94 flow:
//
//  1. channel derivation — cross-module variable accesses become
//     abstract channels (internal/partition);
//  2. channel grouping — channels are grouped for bus implementation;
//  3. bus generation — each group gets a minimum-cost width satisfying
//     the channels' rate requirements (internal/busgen);
//  4. protocol generation — each bus gets wires, IDs, send/receive
//     procedures and variable processes, yielding a simulatable refined
//     specification (internal/protogen).
//
// The refined system can be executed with internal/sim and printed with
// internal/vhdlgen.
package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/busgen"
	"repro/internal/estimate"
	"repro/internal/partition"
	"repro/internal/protogen"
	"repro/internal/repair"
	"repro/internal/spec"
	"repro/internal/verify"
)

// Bounds on the size of one synthesis's refinement, checked once the
// bus widths are chosen and before any protocol generation. Without
// them, a request of a few hundred KB declaring wide vectors and
// forcing width 1 made protocol generation and the listing grow to
// gigabytes. The largest input in the repository's tests and benchmark
// is a 6x6 mesh at width 1; each bound is about ten times its figure.
const (
	// maxWordTransfers bounds the bus-word transfers unrolled, summed
	// over the buses (protogen.WordTransfers). The mesh unrolls 1,584.
	maxWordTransfers = 16384
	// maxParityTerms bounds, under Parity, the lines the per-word parity
	// trees XOR: each transfer's tree covers the bus's DATA and ID
	// lines. The mesh's trees cover 12,672.
	maxParityTerms = 131072
)

// InputError marks a refusal the input causes: an invalid system, one
// with no inter-module communication, a channel group no bus width can
// carry (busgen.ErrInfeasible), a refinement past the size bounds
// above, or a system or configuration protocol generation refuses.
// Error returns the wrapped text unchanged.
type InputError struct{ Err error }

func (e *InputError) Error() string { return e.Err.Error() }
func (e *InputError) Unwrap() error { return e.Err }

// inputErrorf formats an InputError.
func inputErrorf(format string, a ...any) error {
	return &InputError{fmt.Errorf(format, a...)}
}

// Options parameterizes Synthesize.
type Options struct {
	// Grouping selects the channel-grouping policy (default SingleBus,
	// as in the paper's experiments).
	Grouping partition.GroupingPolicy
	// Bus parameterizes bus generation: protocol, constraints,
	// penalties. The zero value is upgraded to busgen.DefaultConfig().
	Bus busgen.Config
	// ForceWidth, when positive, skips bus generation and implements
	// every bus at this width (used for width sweeps like Fig. 7).
	ForceWidth int
	// Arbitrate adds REQ/GRANT bus arbitration to every generated bus,
	// allowing accessors to open transactions concurrently.
	Arbitrate bool
	// BusSignalPrefix optionally prefixes generated bus signal names.
	BusSignalPrefix string
	// Robust hardens every generated protocol: bounded handshake waits,
	// transaction retransmission and watchdog variable processes (see
	// protogen.Config.Robust).
	Robust bool
	// Parity adds PAR/NACK parity lines to every bus; requires Robust
	// and the full handshake.
	Parity bool
	// TimeoutClocks and MaxRetries tune the hardened protocols; zero
	// selects the protogen defaults.
	TimeoutClocks int64
	MaxRetries    int
	// Workers bounds the goroutines used by the estimation and
	// bus-generation sweeps and the checker: 0 means GOMAXPROCS, 1
	// means serial. Under a par.Share in SynthesizeCtx's context the
	// checker's loops run on the share's idle CPUs, at most Workers of
	// them (0: no cap). The synthesized result is identical either way.
	Workers int
	// Verify model-checks the refined system after synthesis: exhaustive
	// interleaving exploration for deadlocks, driver conflicts, bounded
	// response and end-to-end delivery (internal/verify). The report's
	// Verify field carries the verdict; synthesis itself still succeeds
	// when violations are found — callers decide how to react.
	Verify bool
	// VerifyDepth bounds the model checker's search depth (0 =
	// unbounded; the state bound still applies).
	VerifyDepth int
	// VerifyDrops is the model checker's wire-fault budget: how many
	// strobe transitions may be dropped along any one explored path.
	VerifyDrops int
	// VerifyStates bounds the model checker's stored states (0 = the
	// checker's default).
	VerifyStates int
	// VerifyMemBudget bounds the checker's estimated hot-state bytes
	// (verify.Config.MemBudget); past it, sealed BFS layers spill to
	// disk under VerifySpillDir (0 = fully in RAM). The checker's other
	// memory is not counted, so it does not bound the process. Verdicts
	// and counts are identical at any budget, so this knob is excluded
	// from the serve layer's cache key.
	VerifyMemBudget int64
	// VerifySpillDir hosts the checker's spill scratch ("" = system
	// temp directory); only consulted when VerifyMemBudget > 0.
	VerifySpillDir string
	// VerifyLossy switches the checker's dedup store to hash-compaction
	// mode: hash matches are accepted unconfirmed and the verdict
	// reports an omission probability. Result-affecting — it IS part of
	// the serve layer's cache key.
	VerifyLossy bool
	// Repair runs the counterexample-guided repair loop (internal/repair)
	// when verification finds violations: the flow re-generates the
	// protocols with targeted hardening knobs until the properties hold
	// or the repair grammar is exhausted, and the refined system is the
	// final (possibly repaired) variant. Implies Verify; the Report's
	// Repair field carries the iteration trace and Verify the final
	// verdict.
	Repair bool
	// RepairBudget bounds repair iterations (0 = repair.DefaultBudget).
	RepairBudget int
	// RepairTiers caps how far the repair loop may escalate (0 =
	// repair.MaxTier): 1 restricts it to the local tier-1 knobs, 2 adds
	// the arbitration mutations, 3 allows protocol reselection. Each
	// escalation is taken only after every cheaper tier is exhausted,
	// and a tier-3 reselection is priced through the estimator in the
	// repair trace.
	RepairTiers int
	// VerifyProgress, when non-nil, observes the model checker's BFS:
	// called after each merged layer with the stored-state count and
	// depth (see verify.Config.Progress). Observation only — it cannot
	// change any result, which is why it is excluded from JSON encodings
	// and from the serve layer's cache key.
	VerifyProgress func(states, depth int) `json:"-"`
}

// BusReport describes the synthesis of one bus.
type BusReport struct {
	Bus *spec.Bus
	// Gen is the bus-generation result (nil when ForceWidth was used).
	Gen *busgen.Result
	// Ref is the protocol-generation refinement report.
	Ref *protogen.Refinement
}

// Report summarizes a complete interface synthesis.
type Report struct {
	// ChannelsDerived lists channels created by step 1 (empty when the
	// system already declared its channels).
	ChannelsDerived []*spec.Channel
	// Buses holds one report per synthesized bus.
	Buses []BusReport
	// Estimator is the estimator used, for follow-up queries.
	Estimator *estimate.Estimator
	// Verify is the model-checking report (nil unless Options.Verify or
	// Options.Repair). With Repair it is the final iteration's report —
	// the verdict on the system actually delivered.
	Verify *verify.Report
	// Repair is the repair loop's result (nil unless Options.Repair).
	Repair *repair.Result
}

// Synthesize runs the full interface-synthesis flow on the system,
// mutating it into its refined form.
//
// Synthesize is re-entrant: concurrent calls on distinct systems (clone
// a shared spec first — the flow mutates its input) share no state, and
// their reports are byte-identical to serial runs at any worker count.
func Synthesize(sys *spec.System, opts Options) (*Report, error) {
	return SynthesizeCtx(context.Background(), sys, opts)
}

// SynthesizeCtx is Synthesize with cooperative cancellation: the ctx
// reaches the verify BFS and the repair loop, so an abandoned request
// stops burning workers mid-search instead of completing the flow. A
// canceled call returns ctx.Err() (possibly wrapped) and a nil report;
// the input system may have been partially refined — cancellation is
// for requests whose system is about to be discarded.
func SynthesizeCtx(ctx context.Context, sys *spec.System, opts Options) (*Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if errs := sys.Validate(); len(errs) > 0 {
		return nil, inputErrorf("core: invalid input system: %w", errs[0])
	}
	if !opts.Bus.QuantizeRates && opts.Bus.Constraints == nil && opts.Bus.MaxWidth == 0 {
		// Zero value: upgrade to the paper's defaults.
		def := busgen.DefaultConfig()
		def.Protocol = opts.Bus.Protocol
		def.Workers = opts.Bus.Workers
		opts.Bus = def
	}
	if opts.Workers != 0 {
		opts.Bus.Workers = opts.Workers
	}

	rep := &Report{}

	// Step 1: derive channels if the specification declared none.
	if len(sys.Channels) == 0 {
		created, err := partition.DeriveChannels(sys)
		if err != nil {
			return nil, err
		}
		rep.ChannelsDerived = created
	}
	if len(sys.Channels) == 0 {
		return nil, inputErrorf("core: system %s has no inter-module communication", sys.Name)
	}
	rep.Estimator = estimate.New(sys.Channels)

	// Step 2: group channels into buses (unless the caller pre-built
	// the buses).
	buses := sys.Buses
	if len(buses) == 0 {
		var err error
		buses, err = partition.GroupBuses(sys, rep.Estimator, opts.Grouping, opts.Bus)
		if err != nil {
			return nil, err
		}
	}

	// Step 3: select every bus's width first, while the specification is
	// still unrefined. Protocol generation (step 4) rewrites behavior
	// bodies in place, and the estimator memoizes its statement walks,
	// so all estimation-driven decisions must precede the first
	// refinement — this also matches the paper, where bus generation for
	// every group reads the original specification.
	for _, bus := range buses {
		br := BusReport{Bus: bus}
		if opts.ForceWidth > 0 {
			bus.Width = opts.ForceWidth
		} else if bus.Width == 0 {
			gen, err := busgen.Generate(bus.Channels, rep.Estimator, opts.Bus)
			if errors.Is(err, busgen.ErrInfeasible) {
				return nil, inputErrorf("core: bus %s: %w", bus.Name, err)
			}
			if err != nil {
				return nil, fmt.Errorf("core: bus %s: %w", bus.Name, err)
			}
			bus.Width = gen.Width
			br.Gen = gen
		}
		rep.Buses = append(rep.Buses, br)
	}

	// Every word transfer unrolls into statements on both sides of its
	// bus, and under Parity into an XOR tree over the bus's DATA and ID
	// lines, so the widths just chosen fix how large the refinement
	// grows. Refuse an oversized one before generating anything.
	words, terms := 0, 0
	for _, br := range rep.Buses {
		if br.Bus.Width > spec.MaxVectorWidth {
			return nil, inputErrorf("core: bus %s is %d bits wide, above the limit of %d", br.Bus.Name, br.Bus.Width, spec.MaxVectorWidth)
		}
		n := protogen.WordTransfers(br.Bus)
		words += n
		terms += n * (br.Bus.Width + br.Bus.IDBits())
	}
	if words > maxWordTransfers {
		return nil, inputErrorf("core: the buses unroll %d word transfers, above the limit of %d", words, maxWordTransfers)
	}
	if opts.Parity && terms > maxParityTerms {
		return nil, inputErrorf("core: the parity trees cover %d bus lines, above the limit of %d", terms, maxParityTerms)
	}

	// baseCfg is the protocol-generation config for one bus; the repair
	// loop mutates copies of it.
	baseCfg := func(busName string) protogen.Config {
		return protogen.Config{
			Protocol:      opts.Bus.Protocol,
			BusSignalName: opts.BusSignalPrefix + busName,
			Arbitrate:     opts.Arbitrate,
			Robust:        opts.Robust,
			Parity:        opts.Parity,
			TimeoutClocks: opts.TimeoutClocks,
			MaxRetries:    opts.MaxRetries,
		}
	}
	vcfg := verify.Config{
		MaxDepth:  opts.VerifyDepth,
		MaxStates: opts.VerifyStates,
		MaxDrops:  opts.VerifyDrops,
		Workers:   opts.Workers,
		MemBudget: opts.VerifyMemBudget,
		SpillDir:  opts.VerifySpillDir,
		Lossy:     opts.VerifyLossy,
		Progress:  opts.VerifyProgress,
	}

	// Optional repair mode replaces steps 4-5: verify each candidate
	// refinement on a fresh clone (protocol generation rewrites behavior
	// bodies in place) and let the CEGIS loop harden the generation
	// config until the properties hold. The winning config then refines
	// the caller's system, keeping Synthesize's mutate-in-place contract.
	if opts.Repair {
		build := func(cfg protogen.Config) (*spec.System, []string, error) {
			c := spec.Clone(sys)
			var aborts []string
			for _, bus := range c.Buses {
				bcfg := cfg
				bcfg.BusSignalName = opts.BusSignalPrefix + bus.Name
				ref, err := protogen.Generate(c, bus, bcfg)
				if err != nil {
					return nil, nil, &InputError{err}
				}
				aborts = append(aborts, ref.AbortKeys()...)
			}
			return c, aborts, nil
		}
		// Price tier-3 protocol reselections against the first bus (the
		// default grouping is single-bus): the trace then reports the
		// pin/area/performance cost of every escalation it takes.
		var cost *repair.CostModel
		if len(rep.Buses) > 0 {
			cost = &repair.CostModel{
				Channels: rep.Buses[0].Bus.Channels,
				Width:    rep.Buses[0].Bus.Width,
				Est:      rep.Estimator,
			}
		}
		rres, err := repair.RunCtx(ctx, build, baseCfg(""), repair.Config{
			Verify:  vcfg,
			Budget:  opts.RepairBudget,
			MaxTier: opts.RepairTiers,
			Cost:    cost,
		})
		if err != nil {
			return nil, fmt.Errorf("core: repair: %w", err)
		}
		rep.Repair = rres
		rep.Verify = rres.Report
		for i := range rep.Buses {
			br := &rep.Buses[i]
			bcfg := rres.Config
			bcfg.BusSignalName = opts.BusSignalPrefix + br.Bus.Name
			ref, err := protogen.Generate(sys, br.Bus, bcfg)
			if err != nil {
				return nil, inputErrorf("core: bus %s: %w", br.Bus.Name, err)
			}
			br.Ref = ref
		}
		if errs := sys.Validate(); len(errs) > 0 {
			return nil, fmt.Errorf("core: refined system invalid: %w", errs[0])
		}
		return rep, nil
	}

	// Step 4: refine each bus at its selected width.
	for i := range rep.Buses {
		br := &rep.Buses[i]
		ref, err := protogen.Generate(sys, br.Bus, baseCfg(br.Bus.Name))
		if err != nil {
			return nil, inputErrorf("core: bus %s: %w", br.Bus.Name, err)
		}
		br.Ref = ref
	}

	if errs := sys.Validate(); len(errs) > 0 {
		return nil, fmt.Errorf("core: refined system invalid: %w", errs[0])
	}

	// Optional step 5: model-check the refined system. Abort counters
	// introduced by robust refinement excuse cleanly-aborted runs from
	// the delivery check.
	if opts.Verify {
		abortCfg := vcfg
		for _, br := range rep.Buses {
			abortCfg.AbortVars = append(abortCfg.AbortVars, br.Ref.AbortKeys()...)
		}
		vr, err := verify.CheckCtx(ctx, sys, abortCfg)
		if err != nil {
			return nil, fmt.Errorf("core: verify: %w", err)
		}
		rep.Verify = vr
	}
	return rep, nil
}
