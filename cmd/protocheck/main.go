// Command protocheck model-checks a generated bus protocol: it refines
// a specification (the paper's PQ example by default, or a spec file),
// then explores every process interleaving — optionally under a
// wire-fault budget — for deadlocks, driver conflicts, bounded-response
// violations and end-to-end delivery faults. Violations print minimal
// counterexample traces, each replayed through the simulator.
//
// Usage:
//
//	protocheck [flags] [spec.sys]
//
//	-protocol P   full | half (default full handshake)
//	-workload W   built-in workload when no spec file is given:
//	              pq (default) | pq-solo (PQ without the staggered Q
//	              accessor — small enough for exhaustive verdicts on
//	              hardened variants)
//	-robust       harden the protocol (bounded waits, retransmission)
//	-parity       with -robust: PAR/NACK parity lines
//	-timeout N    with -robust: handshake timeout in clocks
//	-retries N    with -robust: retransmission budget per transaction
//	-arbitrate    add REQ/GRANT bus arbitration
//	-width N      force the bus width (0 = run bus generation)
//	-drops N      wire-fault budget: strobe transitions that may be
//	              dropped along any one explored path (default 0)
//	-depth N      search depth bound (0 = states bound only)
//	-states N     stored-states bound (0 = checker default)
//	-mem-budget N budget in MiB for the hot states' rows and index
//	              entries: past it, sealed BFS layers spill to a disk
//	              store (0 = all in RAM; verdict and state count
//	              identical either way). Node bookkeeping, the liveness
//	              graph and the value table stay in RAM uncounted, so
//	              the process outgrows the budget
//	-spill DIR    spill scratch directory (default system temp)
//	-bloom        lossy hash-compaction dedup (SPIN bitstate style):
//	              hash hits are accepted without byte confirmation and
//	              the report carries the omission probability
//	-j N          exploration workers (0 = all CPUs; verdict identical)
//	-repair       on violations, run the counterexample-guided repair
//	              loop (internal/repair): classify each counterexample,
//	              re-generate with targeted hardening knobs, re-verify;
//	              prints the iteration log, and -expect judges the final
//	              (post-repair) verdict
//	-repair-budget N  bound repair iterations (0 = grammar size + 1)
//	-repair-tiers N   cap repair escalation (0 = full ladder): 1 keeps
//	              the local tier-1 knobs, 2 adds the arbitration
//	              mutations, 3 allows protocol reselection — each
//	              escalation is priced through the estimator in the
//	              printed trace
//	-json         machine-readable output: one JSON document with the
//	              spec hash, the verdict (internal/serve's VerifyJSON
//	              shape — the same one the ifsynd daemon returns) and,
//	              with -repair, the repair trace; replaces the text
//	              report, exit codes unchanged
//	-cex FILE     write the first counterexample's replay as VCD
//	-expect E     none | no-deadlock | deadlock | any: exit 0 iff the
//	              verdict matches (default none — a clean report;
//	              no-deadlock tolerates other findings, e.g. the robust
//	              protocol's residual lost-ack corruption window)
//	-cpuprofile F write a CPU profile of the check to F (go tool pprof)
//	-memprofile F write an allocation profile taken after the check to F
//
// Exit status: 0 when the verdict matches -expect, 1 when it does not,
// 2 on usage or synthesis errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/core"
	"repro/internal/hdl"
	"repro/internal/serve"
	"repro/internal/spec"
	"repro/internal/verify"
	"repro/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonVerdict is protocheck -json's output document. Verify and Repair
// reuse internal/serve's response shapes, so CI and scripts parse one
// vocabulary whether the verdict came from the CLI or the daemon.
type jsonVerdict struct {
	Workload string `json:"workload,omitempty"`
	SpecFile string `json:"spec_file,omitempty"`
	SpecHash string `json:"spec_hash"`
	Expect   string `json:"expect"`
	// Match reports whether the verdict satisfied -expect (the exit
	// status says the same thing; this keeps parsed output self-contained).
	Match  bool              `json:"match"`
	Verify *serve.VerifyJSON `json:"verify"`
	Repair *serve.RepairJSON `json:"repair,omitempty"`
	Replay string            `json:"replay,omitempty"`
}

// run is main, testably: flags from args, output on the writers, exit
// status returned.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("protocheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	protoName := fs.String("protocol", "full", "protocol: full | half")
	workload := fs.String("workload", "pq", "built-in workload when no spec file is given: pq | pq-solo")
	robust := fs.Bool("robust", false, "harden the protocol: bounded waits, retransmission, watchdogs")
	parity := fs.Bool("parity", false, "with -robust: add PAR/NACK parity lines")
	timeoutClocks := fs.Int64("timeout", 0, "with -robust: handshake timeout in clocks (0 = default)")
	retries := fs.Int("retries", 0, "with -robust: retransmission budget (0 = default)")
	arbitrate := fs.Bool("arbitrate", false, "add REQ/GRANT bus arbitration")
	width := fs.Int("width", 0, "force bus width (0 = run bus generation)")
	drops := fs.Int("drops", 0, "dropped-transition budget per explored path")
	depth := fs.Int("depth", 0, "search depth bound (0 = states bound only)")
	states := fs.Int("states", 0, "stored-states bound (0 = checker default)")
	memBudget := fs.Int64("mem-budget", 0, "budget in MiB for hot states' rows and index entries; past it sealed BFS layers spill to disk, and other checker memory is not counted (0 = all in RAM; verdict identical)")
	spillDir := fs.String("spill", "", "spill scratch directory (default system temp; only used with -mem-budget)")
	bloomMode := fs.Bool("bloom", false, "lossy hash-compaction dedup: skip byte confirmation of hash hits and report the omission probability")
	workers := fs.Int("j", 0, "exploration workers (0 = all CPUs, 1 = serial; verdict identical)")
	repairFlag := fs.Bool("repair", false, "on violations, run the counterexample-guided repair loop")
	repairBudget := fs.Int("repair-budget", 0, "bound repair iterations (0 = grammar size + 1)")
	repairTiers := fs.Int("repair-tiers", 0, "cap repair escalation: 1 local knobs, 2 +arbitration, 3 +protocol reselection (0 = full ladder)")
	jsonOut := fs.Bool("json", false, "emit one machine-readable JSON document instead of the text report")
	cexPath := fs.String("cex", "", "write the first counterexample's replay waveform to this VCD file")
	expect := fs.String("expect", "none", "expected verdict: none | no-deadlock | deadlock | any")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the check to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile taken after the check to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fatal := func(err error) int {
		fmt.Fprintln(stderr, "protocheck:", err)
		return 2
	}

	if fs.NArg() > 1 {
		fmt.Fprintln(stderr, "usage: protocheck [flags] [spec.sys]")
		fs.PrintDefaults()
		return 2
	}
	switch *expect {
	case "none", "no-deadlock", "deadlock", "any":
	default:
		fmt.Fprintf(stderr, "protocheck: unknown -expect %q (want none | no-deadlock | deadlock | any)\n", *expect)
		return 2
	}

	out := jsonVerdict{Expect: *expect}
	var sys *spec.System
	if fs.NArg() == 1 {
		parsed, err := hdl.ParseFile(fs.Arg(0))
		if err != nil {
			return fatal(err)
		}
		sys = parsed
		out.SpecFile = fs.Arg(0)
	} else {
		switch *workload {
		case "pq":
			sys, _ = workloads.PQ()
		case "pq-solo":
			sys, _ = workloads.PQSolo()
		default:
			fmt.Fprintf(stderr, "protocheck: unknown -workload %q (want pq | pq-solo)\n", *workload)
			return 2
		}
		out.Workload = *workload
	}
	out.SpecHash = spec.Hash(sys).String()

	opts := core.Options{
		ForceWidth:    *width,
		Arbitrate:     *arbitrate,
		Robust:        *robust,
		Parity:        *parity,
		TimeoutClocks: *timeoutClocks,
		MaxRetries:    *retries,
		Workers:       *workers,
	}
	switch *protoName {
	case "full":
		opts.Bus.Protocol = spec.FullHandshake
	case "half":
		opts.Bus.Protocol = spec.HalfHandshake
	default:
		fmt.Fprintf(stderr, "protocheck: unknown -protocol %q (want full | half)\n", *protoName)
		return 2
	}

	if *repairFlag {
		opts.Repair = true
		opts.RepairBudget = *repairBudget
		opts.RepairTiers = *repairTiers
		opts.VerifyDepth = *depth
		opts.VerifyStates = *states
		opts.VerifyDrops = *drops
		opts.VerifyMemBudget = *memBudget << 20
		opts.VerifySpillDir = *spillDir
		opts.VerifyLossy = *bloomMode
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fatal(err)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}

	// With -repair, verification runs inside Synthesize (the repair loop
	// re-generates and re-checks per iteration); without it, the check
	// runs here on the refined system.
	rep, err := core.Synthesize(sys, opts)
	if err != nil {
		return fatal(err)
	}
	var vr *verify.Report
	if *repairFlag {
		vr = rep.Verify
		out.Repair = serve.NewRepairJSON(rep.Repair)
		if !*jsonOut {
			fmt.Fprint(stdout, rep.Repair.Format())
		}
	} else {
		var abortVars []string
		for _, br := range rep.Buses {
			abortVars = append(abortVars, br.Ref.AbortKeys()...)
		}
		vr, err = verify.Check(sys, verify.Config{
			MaxDepth:  *depth,
			MaxStates: *states,
			MaxDrops:  *drops,
			Workers:   *workers,
			MemBudget: *memBudget << 20,
			SpillDir:  *spillDir,
			Lossy:     *bloomMode,
			AbortVars: abortVars,
		})
		if err != nil {
			return fatal(err)
		}
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fatal(err)
		}
		runtime.GC() // flush the allocation accounting before snapshotting
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return fatal(err)
		}
		if err := f.Close(); err != nil {
			return fatal(err)
		}
	}
	out.Verify = serve.NewVerifyJSON(vr)
	if !*jsonOut {
		fmt.Fprint(stdout, vr.Format())
	}

	deadlocked := false
	for _, v := range vr.Violations {
		if v.Kind == verify.Deadlock {
			deadlocked = true
		}
	}
	if len(vr.Violations) > 0 {
		v := vr.Violations[0]
		if v.Cex != nil {
			if r, err := v.Cex.Replay(); err == nil {
				out.Replay = fmt.Sprint(r.Outcome)
				if !*jsonOut {
					fmt.Fprintf(stdout, "replay of [1]: %s\n", r.Outcome)
				}
			} else if !*jsonOut {
				fmt.Fprintf(stdout, "replay of [1] failed: %v\n", err)
			}
			if *cexPath != "" {
				f, err := os.Create(*cexPath)
				if err != nil {
					return fatal(err)
				}
				if err := v.Cex.WriteVCD(f); err != nil {
					f.Close()
					return fatal(err)
				}
				if err := f.Close(); err != nil {
					return fatal(err)
				}
				if !*jsonOut {
					fmt.Fprintf(stdout, "counterexample waveform written to %s\n", *cexPath)
				}
			}
		}
	}

	ok := false
	switch *expect {
	case "none":
		ok = vr.Clean()
	case "no-deadlock":
		ok = !deadlocked
	case "deadlock":
		ok = deadlocked
	case "any":
		ok = len(vr.Violations) > 0
	}
	out.Match = ok
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(&out); err != nil {
			return fatal(err)
		}
	}
	if !ok {
		if !*jsonOut {
			fmt.Fprintf(stdout, "verdict does not match -expect %s\n", *expect)
		}
		return 1
	}
	return 0
}
