// Command ifsyn runs the complete interface-synthesis flow on a textual
// specification: parse, derive channels, group them into a bus, select
// the bus width (bus generation), generate the transfer protocol
// (protocol generation) and emit the refined specification as VHDL-
// flavored text. With -run the refined system is also simulated and the
// final memory state printed.
//
// Usage:
//
//	ifsyn [flags] spec.sys
//
//	-autopartition N  re-partition the system into N modules by closeness
//	                before synthesis (discards the spec's module split)
//	-width N        force the bus width instead of running bus generation
//	-protocol P     full | half | fixed (default full handshake)
//	-grouping G     single | pairs | feasible (channel grouping policy)
//	-constraint C   designer constraint, repeatable; forms:
//	                  minwidth:VALUE:WEIGHT
//	                  maxwidth:VALUE:WEIGHT
//	                  minpeak:CHANNEL:VALUE:WEIGHT
//	                  maxpeak:CHANNEL:VALUE:WEIGHT
//	                  minave:CHANNEL:VALUE:WEIGHT
//	                  maxave:CHANNEL:VALUE:WEIGHT
//	-o FILE         write the refined VHDL to FILE (default stdout)
//	-j N            concurrent workers for estimation sweeps
//	                (0 = all CPUs, 1 = serial; results are identical)
//	-summary        print the synthesis summary (buses, IDs, wires)
//	-trace          print the bus-generation width trace
//	-arbitrate      add REQ/GRANT bus arbitration
//	-area           print gate-equivalent area estimates per module
//	-run            simulate the refined system and print final values
//	-vcd FILE       with -run: dump signal waveforms as a VCD file
//	-robust         harden the protocol: bounded waits, retransmission,
//	                watchdog variable processes (full/half handshake)
//	-parity         with -robust: PAR/NACK parity lines over DATA+ID
//	-timeout N      with -robust: clocks before a handshake wait expires
//	-retries N      with -robust: retransmission budget per transaction
//	-faults N       run a fault-injection campaign of N seeded runs per
//	                bus and print the outcome table
//	-fault-seed S   campaign seed (campaigns are reproducible per seed)
//	-verify         model-check the refined system: exhaustive
//	                interleaving search for deadlocks, driver conflicts,
//	                bounded response and end-to-end delivery; violations
//	                print minimal counterexample traces and exit 1
//	-verify-depth N bound the model checker's search depth (0 = states
//	                bound only)
//	-verify-drops N wire-fault budget: how many strobe transitions may
//	                be dropped along any explored path (0 = fault-free)
//	-repair         on violations, run the counterexample-guided repair
//	                loop on the parsed spec: classify each counterexample,
//	                re-generate the protocols with targeted hardening
//	                knobs — escalating through arbitration mutations up to
//	                protocol reselection, each escalation priced through
//	                the estimator — and re-verify until the properties
//	                hold or the grammar is exhausted; prints the iteration
//	                trace, emits the repaired refinement, and implies
//	                -verify
//	-repair-budget N  bound repair iterations (0 = grammar size + 1)
//	-repair-tiers N   cap repair escalation: 1 local knobs only, 2 adds
//	                arbitration mutations, 3 allows protocol reselection
//	                (0 = full ladder)
//	-expect E       judge the (post-repair) verdict instead of the plain
//	                exit-1-on-violation rule: none | no-deadlock |
//	                deadlock | any; exit 0 iff the verdict matches
//	-cex FILE       with -verify: dump the first counterexample's
//	                simulator replay as a VCD waveform to FILE
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/busgen"
	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/fault"
	"repro/internal/hdl"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/vcd"
	"repro/internal/verify"
	"repro/internal/vhdlgen"
)

type constraintFlags []busgen.Constraint

func (c *constraintFlags) String() string { return fmt.Sprintf("%v", []busgen.Constraint(*c)) }

func (c *constraintFlags) Set(s string) error {
	parts := strings.Split(s, ":")
	kindName := strings.ToLower(parts[0])
	var kind busgen.ConstraintKind
	hasChannel := false
	switch kindName {
	case "minwidth":
		kind = busgen.MinBusWidth
	case "maxwidth":
		kind = busgen.MaxBusWidth
	case "minpeak":
		kind, hasChannel = busgen.MinPeakRate, true
	case "maxpeak":
		kind, hasChannel = busgen.MaxPeakRate, true
	case "minave":
		kind, hasChannel = busgen.MinAveRate, true
	case "maxave":
		kind, hasChannel = busgen.MaxAveRate, true
	default:
		return fmt.Errorf("unknown constraint kind %q", parts[0])
	}
	want := 3
	if hasChannel {
		want = 4
	}
	if len(parts) != want {
		return fmt.Errorf("constraint %q: want %d fields", s, want)
	}
	i := 1
	channel := ""
	if hasChannel {
		channel = parts[i]
		i++
	}
	value, err := strconv.ParseFloat(parts[i], 64)
	if err != nil {
		return fmt.Errorf("constraint %q: bad value: %v", s, err)
	}
	weight, err := strconv.ParseFloat(parts[i+1], 64)
	if err != nil {
		return fmt.Errorf("constraint %q: bad weight: %v", s, err)
	}
	*c = append(*c, busgen.Constraint{Kind: kind, Channel: channel, Value: value, Weight: weight})
	return nil
}

func main() {
	autopart := flag.Int("autopartition", 0, "re-partition into N modules by closeness (0 = keep the spec's modules)")
	width := flag.Int("width", 0, "force bus width (0 = run bus generation)")
	protoName := flag.String("protocol", "full", "protocol: full | half | fixed")
	groupName := flag.String("grouping", "single", "channel grouping: single | pairs | feasible")
	out := flag.String("o", "", "output file for refined VHDL (default stdout)")
	summary := flag.Bool("summary", false, "print synthesis summary")
	trace := flag.Bool("trace", false, "print bus-generation width trace")
	arbitrate := flag.Bool("arbitrate", false, "add REQ/GRANT bus arbitration")
	workers := flag.Int("j", 0, "concurrent workers for estimation sweeps (0 = all CPUs, 1 = serial)")
	area := flag.Bool("area", false, "print per-module area estimates")
	run := flag.Bool("run", false, "simulate the refined system")
	vcdPath := flag.String("vcd", "", "with -run: write waveforms to this VCD file")
	robust := flag.Bool("robust", false, "harden the protocol: bounded waits, retransmission, watchdogs")
	parity := flag.Bool("parity", false, "with -robust: add PAR/NACK parity lines over DATA+ID")
	timeoutClocks := flag.Int64("timeout", 0, "with -robust: handshake timeout in clocks (0 = default)")
	retries := flag.Int("retries", 0, "with -robust: retransmission budget per transaction (0 = default)")
	faults := flag.Int("faults", 0, "run a fault-injection campaign of N seeded runs per bus")
	faultSeed := flag.Int64("fault-seed", 1, "campaign seed (same seed, same campaign)")
	doVerify := flag.Bool("verify", false, "model-check the refined system for deadlocks, conflicts, liveness and delivery")
	verifyDepth := flag.Int("verify-depth", 0, "with -verify: search depth bound (0 = states bound only)")
	verifyDrops := flag.Int("verify-drops", 0, "with -verify: dropped-transition budget per path (0 = fault-free)")
	doRepair := flag.Bool("repair", false, "on violations, run the counterexample-guided repair loop (implies -verify)")
	repairBudget := flag.Int("repair-budget", 0, "bound repair iterations (0 = grammar size + 1)")
	repairTiers := flag.Int("repair-tiers", 0, "cap repair escalation: 1 local knobs, 2 +arbitration, 3 +protocol reselection (0 = full ladder)")
	expect := flag.String("expect", "", "judge the (post-repair) verdict: none | no-deadlock | deadlock | any")
	cexPath := flag.String("cex", "", "with -verify: write the first counterexample's replay waveform to this VCD file")
	var constraints constraintFlags
	flag.Var(&constraints, "constraint", "designer constraint (repeatable)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ifsyn [flags] spec.sys")
		flag.PrintDefaults()
		os.Exit(2)
	}
	switch *expect {
	case "", "none", "no-deadlock", "deadlock", "any":
	default:
		fmt.Fprintf(os.Stderr, "ifsyn: unknown -expect %q (want none | no-deadlock | deadlock | any)\n", *expect)
		os.Exit(2)
	}

	sys, err := hdl.ParseFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	if *autopart > 0 {
		if err := partition.Repartition(sys, *autopart, partition.Config{Balanced: true}); err != nil {
			fatal(err)
		}
		for _, m := range sys.Modules {
			names := make([]string, 0, len(m.Behaviors)+len(m.Variables))
			for _, b := range m.Behaviors {
				names = append(names, b.Name)
			}
			for _, v := range m.Variables {
				names = append(names, v.Name)
			}
			fmt.Fprintf(os.Stderr, "partition %s: %s\n", m.Name, strings.Join(names, ", "))
		}
	}

	cfg := busgen.DefaultConfig()
	cfg.Constraints = constraints
	switch *protoName {
	case "full":
		cfg.Protocol = spec.FullHandshake
	case "half":
		cfg.Protocol = spec.HalfHandshake
	case "fixed":
		cfg.Protocol = spec.FixedDelay
	default:
		fatal(fmt.Errorf("unknown protocol %q", *protoName))
	}
	var grouping partition.GroupingPolicy
	switch *groupName {
	case "single":
		grouping = partition.SingleBus
	case "pairs":
		grouping = partition.ByModulePair
	case "feasible":
		grouping = partition.RateFeasible
	default:
		fatal(fmt.Errorf("unknown grouping %q", *groupName))
	}

	rep, err := core.Synthesize(sys, core.Options{
		Grouping:      grouping,
		Bus:           cfg,
		ForceWidth:    *width,
		Arbitrate:     *arbitrate,
		Workers:       *workers,
		Robust:        *robust,
		Parity:        *parity,
		TimeoutClocks: *timeoutClocks,
		MaxRetries:    *retries,
		Verify:        *doVerify,
		VerifyDepth:   *verifyDepth,
		VerifyDrops:   *verifyDrops,
		Repair:        *doRepair,
		RepairBudget:  *repairBudget,
		RepairTiers:   *repairTiers,
	})
	if err != nil {
		fatal(err)
	}
	if rep.Repair != nil {
		fmt.Fprint(os.Stderr, rep.Repair.Format())
	}

	if *summary {
		fmt.Fprint(os.Stderr, vhdlgen.Summary(sys))
	}
	if *trace {
		for _, br := range rep.Buses {
			if br.Gen != nil {
				fmt.Fprintf(os.Stderr, "bus %s width trace:\n%s", br.Bus.Name, busgen.FormatTrace(br.Gen))
			}
		}
	}

	if *area {
		model := estimate.DefaultAreaModel()
		reports, total := model.SystemArea(sys)
		names := make([]string, 0, len(reports))
		for n := range reports {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintln(os.Stderr, "area estimates (gate equivalents):")
		for _, n := range names {
			r := reports[n]
			fmt.Fprintf(os.Stderr, "  %-12s reg %8.0f  mem %8.0f  fu %8.0f  mux %8.0f  ctrl %8.0f  busif %8.0f  total %9.0f\n",
				n, r.Registers, r.Memory, r.FUs, r.Mux, r.Control, r.BusIf, r.Total())
		}
		fmt.Fprintf(os.Stderr, "  system total (with bus drivers): %.0f\n", total)
	}

	text := vhdlgen.Emit(sys)
	if *out == "" {
		fmt.Print(text)
	} else if err := os.WriteFile(*out, []byte(text), 0o644); err != nil {
		fatal(err)
	}

	if *run {
		simCfg := sim.Config{}
		var vcdWriter *vcd.Writer
		if *vcdPath != "" {
			f, err := os.Create(*vcdPath)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			vcdWriter, err = vcd.NewWriter(f, sys)
			if err != nil {
				fatal(err)
			}
			simCfg.OnEvent = vcdWriter.OnEvent
		}
		eng, err := sim.NewEngine(sys)
		if err != nil {
			fatal(err)
		}
		res, err := eng.Run(simCfg)
		if err != nil {
			fatal(err)
		}
		if vcdWriter != nil {
			if err := vcdWriter.Close(res.Clocks); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "waveforms written to %s\n", *vcdPath)
		}
		fmt.Fprintf(os.Stderr, "\nsimulated %d clocks, %d deltas, %d instructions\n",
			res.Clocks, res.Deltas, res.Steps)
		keys := make([]string, 0, len(res.Finals))
		for k := range res.Finals {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(os.Stderr, "  %-24s = %s\n", k, res.Finals[k])
		}
	}

	if *faults > 0 {
		for _, br := range rep.Buses {
			var abortVars []string
			if br.Ref != nil {
				abortVars = br.Ref.AbortKeys()
			}
			report, err := fault.Campaign(sys, br.Bus, fault.Config{
				Runs:      *faults,
				Seed:      *faultSeed,
				AbortVars: abortVars,
				Workers:   *workers,
			})
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "\nfault campaign: bus %s, %d runs, seed %d\n%s",
				br.Bus.Name, *faults, *faultSeed, report.Format())
		}
	}

	if rep.Verify != nil {
		fmt.Fprintf(os.Stderr, "\nverify: %s", rep.Verify.Format())
		if len(rep.Verify.Violations) > 0 {
			v := rep.Verify.Violations[0]
			if v.Cex != nil {
				if r, err := v.Cex.Replay(); err == nil {
					fmt.Fprintf(os.Stderr, "replay of [1]: %s\n", r.Outcome)
				}
				if *cexPath != "" {
					f, err := os.Create(*cexPath)
					if err != nil {
						fatal(err)
					}
					if err := v.Cex.WriteVCD(f); err != nil {
						f.Close()
						fatal(err)
					}
					if err := f.Close(); err != nil {
						fatal(err)
					}
					fmt.Fprintf(os.Stderr, "counterexample waveform written to %s\n", *cexPath)
				}
			}
		}
		if *expect != "" {
			// With -repair the judged report is the final iteration's —
			// the verdict on the repaired refinement actually emitted.
			deadlocked := false
			for _, v := range rep.Verify.Violations {
				if v.Kind == verify.Deadlock {
					deadlocked = true
				}
			}
			ok := false
			switch *expect {
			case "none":
				ok = rep.Verify.Clean()
			case "no-deadlock":
				ok = !deadlocked
			case "deadlock":
				ok = deadlocked
			case "any":
				ok = len(rep.Verify.Violations) > 0
			}
			if !ok {
				fmt.Fprintf(os.Stderr, "verdict does not match -expect %s\n", *expect)
				os.Exit(1)
			}
		} else if len(rep.Verify.Violations) > 0 {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ifsyn:", err)
	os.Exit(1)
}
