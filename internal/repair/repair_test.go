package repair

import (
	"bytes"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/estimate"
	"repro/internal/fault"
	"repro/internal/protogen"
	"repro/internal/spec"
	"repro/internal/verify"
	"repro/internal/workloads"
)

// builderFor returns a Builder regenerating from a fresh clone of the
// given unrefined template on every call (protogen refines in place).
func builderFor(template *spec.System) Builder {
	return func(cfg protogen.Config) (*spec.System, []string, error) {
		sys := spec.Clone(template)
		ref, err := protogen.Generate(sys, sys.Buses[0], cfg)
		if err != nil {
			return nil, nil, err
		}
		return sys, ref.AbortKeys(), nil
	}
}

func pqSoloBuilder() Builder {
	sys, _ := workloads.PQSolo()
	return builderFor(sys)
}

// robustBase mirrors the verify test suite's hardened configuration:
// small timers keep the state space tight without changing the
// protocol's shape.
func robustBase() protogen.Config {
	return protogen.Config{
		Protocol: spec.FullHandshake, Robust: true,
		TimeoutClocks: 8, MaxRetries: 2,
	}
}

// runLostAck runs (once, cached) the headline repair: hardened PQSolo
// at drop budget 1. Several tests consume the same deterministic run.
func runLostAck(t *testing.T) *Result {
	t.Helper()
	lostAckOnce.Do(func() {
		lostAckRes, lostAckErr = Run(pqSoloBuilder(), robustBase(), Config{
			Verify: verify.Config{MaxDrops: 1},
		})
	})
	if lostAckErr != nil {
		t.Fatal(lostAckErr)
	}
	return lostAckRes
}

var (
	lostAckOnce sync.Once
	lostAckRes  *Result
	lostAckErr  error
)

// TestRepairLostAckWindow is the headline: the robust protocol silently
// corrupts at drop budget 1 (DESIGN.md §5d); the CEGIS loop must
// converge to an exhaustively clean variant, and the path there is
// forced — CommitAck alone leaves the watchdog lasso, ReleaseStale
// alone leaves the corruption — so the loop genuinely needs both.
func TestRepairLostAckWindow(t *testing.T) {
	res := runLostAck(t)
	if !res.Verified() {
		t.Fatalf("repair did not converge to a proven-clean variant:\n%s", res.Format())
	}
	if len(res.Mutations) != 2 || res.Mutations[0] != CommitAck || res.Mutations[1] != ReleaseStale {
		t.Fatalf("expected the forced two-step repair [CommitAck ReleaseStale], got %v", res.Mutations)
	}
	if len(res.Iterations) != 3 {
		t.Fatalf("expected 3 iterations (base, +CommitAck, +both), got %d:\n%s", len(res.Iterations), res.Format())
	}
	if !res.Config.CommitAck || !res.Config.ReleaseStale {
		t.Fatalf("final config missing applied knobs: %+v", res.Config)
	}
	// Iteration 0 must diagnose the corruption as the lost-ack mode.
	it0 := res.Iterations[0]
	if it0.Clean || it0.Applied != "CommitAck" {
		t.Fatalf("iteration 0 should find violations and apply CommitAck: %+v", it0)
	}
	foundLostAck := false
	for _, v := range it0.Violations {
		if v.Mode == "lost-ack" {
			foundLostAck = true
		}
	}
	if !foundLostAck {
		t.Fatalf("iteration 0 violations not classified lost-ack: %+v", it0.Violations)
	}
	// Iteration 1: the residual lasso.
	it1 := res.Iterations[1]
	if it1.Clean || it1.Classified != "lasso" || it1.Applied != "ReleaseStale" {
		t.Fatalf("iteration 1 should classify the lasso and apply ReleaseStale: %+v", it1)
	}
	// Final iteration clean and exhaustive.
	last := res.Iterations[2]
	if !last.Clean || last.Incomplete {
		t.Fatalf("final iteration not exhaustively clean: %+v", last)
	}
	checkStates(t, res, []int{36544, 36056, 34331})
	// Every pre-repair counterexample was collected for replay.
	if len(res.Counterexamples) == 0 {
		t.Fatal("no counterexamples collected across iterations")
	}
	if _, err := res.TraceJSON(); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
}

// TestRepairTurnaroundConflict: the half handshake's read-turnaround
// driver contention (a fault-free finding) classifies as turnaround and
// TurnFlush eliminates it. With the ladder capped at tier 1 (PR 7's
// grammar) the repair is honest rather than total: with the contention
// gone the checker exposes the unacknowledged pulse the half handshake
// can still miss — a delivery hazard no local knob fixes (the full
// handshake's ack is the fix) — and the loop must report the grammar
// exhausted instead of claiming success. TestRepairEscalatesHalfPQ
// covers the uncapped ladder, where protocol selection closes exactly
// this hazard.
func TestRepairTurnaroundConflict(t *testing.T) {
	sys, _ := workloads.PQ()
	res, err := Run(builderFor(sys), protogen.Config{Protocol: spec.HalfHandshake}, Config{
		Verify:  verify.Config{},
		MaxTier: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mutations) != 1 || res.Mutations[0] != TurnFlush {
		t.Fatalf("expected the single repair step [TurnFlush], got %v:\n%s", res.Mutations, res.Format())
	}
	it0 := res.Iterations[0]
	if it0.Classified != "turnaround" || it0.Applied != "TurnFlush" {
		t.Fatalf("contention not classified turnaround: %+v", it0)
	}
	conflicts := 0
	for _, v := range it0.Violations {
		if v.Kind == verify.DriverConflict.String() {
			conflicts++
		}
	}
	if conflicts == 0 {
		t.Fatalf("base iteration found no driver conflict: %+v", it0.Violations)
	}
	// After TurnFlush every driver conflict is gone; what remains is the
	// missed-pulse delivery hazard, outside the grammar.
	last := res.Iterations[len(res.Iterations)-1]
	for _, v := range last.Violations {
		if v.Kind == verify.DriverConflict.String() {
			t.Fatalf("driver conflict survived TurnFlush: %+v", last.Violations)
		}
	}
	if res.Repaired || !res.ExhaustedGrammar {
		t.Fatalf("loop should report grammar exhaustion on the residual hazard:\n%s", res.Format())
	}
	if res.FinalTier != 1 {
		t.Fatalf("capped ladder escalated to tier %d", res.FinalTier)
	}
}

// TestRepairEscalatesHalfPQ is this PR's headline: the same half
// handshake that TestRepairTurnaroundConflict leaves in honest
// ExhaustedGrammar now repairs end-to-end under the full escalation
// ladder. TurnFlush (tier 1) removes the turnaround contention; the
// residual missed-pulse corruption has no tier-1 or tier-2 candidate,
// so the loop escalates to tier 3 and SelectFullHandshake swaps the
// protocol for the robust full handshake — after which the familiar
// lost-ack window and watchdog lasso surface and the tier-1 knobs
// finish the job. The final variant is the configuration PR 7 proved:
// exhaustively clean at drop budget 1.
func TestRepairEscalatesHalfPQ(t *testing.T) {
	res := runEscalation(t)
	if !res.Verified() {
		t.Fatalf("escalating repair did not converge to a proven-clean variant:\n%s", res.Format())
	}
	want := []Mutation{TurnFlush, SelectFullHandshake, CommitAck, ReleaseStale}
	if len(res.Mutations) != len(want) {
		t.Fatalf("mutations = %v, want %v:\n%s", res.Mutations, want, res.Format())
	}
	for i, m := range want {
		if res.Mutations[i] != m {
			t.Fatalf("mutations = %v, want %v", res.Mutations, want)
		}
	}
	if res.FinalTier != 3 {
		t.Fatalf("FinalTier = %d, want 3", res.FinalTier)
	}
	// The escalating iteration carries the tier jump and the priced
	// protocol swap.
	var esc *Iteration
	for i := range res.Iterations {
		if res.Iterations[i].Applied == SelectFullHandshake.String() {
			esc = &res.Iterations[i]
		}
	}
	if esc == nil {
		t.Fatalf("no iteration applied SelectFullHandshake:\n%s", res.Format())
	}
	if !esc.Escalated || esc.Tier != 3 {
		t.Fatalf("selection iteration not marked as a tier-3 escalation: %+v", esc)
	}
	if esc.Cost == nil {
		t.Fatalf("selection iteration carries no escalation cost: %+v", esc)
	}
	c := esc.Cost
	if c.From != spec.HalfHandshake.String() || c.To != spec.FullHandshake.String() {
		t.Fatalf("cost delta names %s -> %s, want half -> full handshake", c.From, c.To)
	}
	// The full handshake costs strictly more wires and gates — that is
	// the price the trace exists to report.
	if c.PinsTo <= c.PinsFrom || c.AreaTo <= c.AreaFrom {
		t.Fatalf("escalation cost not strictly increasing: %+v", c)
	}
	if c.WorstExecFrom <= 0 || c.WorstExecTo <= 0 {
		t.Fatalf("cost model with estimator reported no exec times: %+v", c)
	}
	// The selected config is the 8/2 robust full handshake PR 7 proved,
	// plus the tier-1 repairs; TurnFlush was cleared with the protocol
	// that needed it.
	fc := res.Config
	if fc.Protocol != spec.FullHandshake || !fc.Robust ||
		fc.TimeoutClocks != EscalateTimeoutClocks || fc.MaxRetries != EscalateMaxRetries {
		t.Fatalf("escalated config is not the 8/2 robust full handshake: %+v", fc)
	}
	if fc.TurnFlush {
		t.Fatalf("TurnFlush survived the protocol swap: %+v", fc)
	}
	if !fc.CommitAck || !fc.ReleaseStale {
		t.Fatalf("tier-1 repairs missing from the escalated config: %+v", fc)
	}
	// Exhaustively clean, and the counterexample pool covers the
	// pre-escalation hazard for the regression replays.
	last := res.Iterations[len(res.Iterations)-1]
	if !last.Clean || last.Incomplete {
		t.Fatalf("final iteration not exhaustively clean: %+v", last)
	}
	checkStates(t, res, []int{1204, 372, 36544, 36056, 34331})
	if len(res.Counterexamples) == 0 {
		t.Fatal("no counterexamples collected across iterations")
	}
}

// checkStates pins the states each iteration's verify run stored. Both
// trajectories run on PQSolo, whose program writes only MEM(5). The
// escalation's first iteration, a half handshake that stops at the
// violation cap, stores 1,204: a missed pulse there makes X's data word
// 32 an address, and six of its states differ from others only in
// MEM(32).
func checkStates(t *testing.T, res *Result, want []int) {
	t.Helper()
	got := make([]int, len(res.Iterations))
	for i, it := range res.Iterations {
		got[i] = it.States
	}
	if !slices.Equal(got, want) {
		t.Errorf("states per iteration = %v, want %v", got, want)
	}
}

// runEscalation runs (once, cached) the escalating repair: half
// handshake PQSolo at drop budget 1 under the full ladder, with a cost
// model priced off the pre-refinement channels.
func runEscalation(t *testing.T) *Result {
	t.Helper()
	escalationOnce.Do(func() {
		sys, bus := workloads.PQSolo()
		escalationRes, escalationErr = Run(builderFor(sys), protogen.Config{Protocol: spec.HalfHandshake}, Config{
			Verify: verify.Config{MaxDrops: 1},
			Cost: &CostModel{
				Channels: bus.Channels,
				Width:    8,
				Est:      estimate.New(sys.Channels),
			},
		})
	})
	if escalationErr != nil {
		t.Fatal(escalationErr)
	}
	return escalationRes
}

var (
	escalationOnce sync.Once
	escalationRes  *Result
	escalationErr  error
)

// TestRepairGrammarExhausted: the baseline (non-robust) full handshake
// deadlocks under a 1-drop budget; no grammar member is applicable
// without Robust, so the loop must stop immediately and say so.
func TestRepairGrammarExhausted(t *testing.T) {
	res, err := Run(pqSoloBuilder(), protogen.Config{Protocol: spec.FullHandshake}, Config{
		Verify: verify.Config{MaxDrops: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Repaired || !res.ExhaustedGrammar {
		t.Fatalf("expected grammar exhaustion on the unhardened baseline:\n%s", res.Format())
	}
	if len(res.Iterations) != 1 || len(res.Mutations) != 0 {
		t.Fatalf("expected a single iteration with no mutations, got %d/%v", len(res.Iterations), res.Mutations)
	}
}

// TestRepairCleanBaseNoIterations: a system with nothing wrong repairs
// trivially in one iteration with no mutations.
func TestRepairCleanBaseNoIterations(t *testing.T) {
	res, err := Run(pqSoloBuilder(), protogen.Config{Protocol: spec.FullHandshake}, Config{
		Verify: verify.Config{}, // no drop budget: fault-free baseline is clean
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified() || len(res.Mutations) != 0 || len(res.Iterations) != 1 {
		t.Fatalf("fault-free baseline should verify clean untouched:\n%s", res.Format())
	}
}

// TestRepairWorkerInvariance pins the loop's determinism: the repaired
// spec and the full iteration trace are byte-identical at any verify
// worker count, matching the invariance guarantees of verify and the
// fault campaigns. The escalating scenario covers the ladder itself —
// tier escalation and protocol selection are pure functions of the
// (worker-invariant) verify reports, so the whole trace including the
// cost delta must not move.
func TestRepairWorkerInvariance(t *testing.T) {
	type digest struct {
		trace    string
		format   string
		spec     string
		states   int
		iters    int
		repaired bool
		tier     int
	}
	run := func(base protogen.Config, workers int) digest {
		res, err := Run(pqSoloBuilder(), base, Config{
			Verify: verify.Config{MaxDrops: 1, Workers: workers},
		})
		if err != nil {
			t.Fatal(err)
		}
		tj, err := res.TraceJSON()
		if err != nil {
			t.Fatal(err)
		}
		var specText bytes.Buffer
		for _, b := range res.System.Behaviors() {
			specText.WriteString(b.Name + "\n" + spec.FormatStmts(b.Body, "  "))
			for _, p := range b.Procedures {
				specText.WriteString(p.Name + "\n" + spec.FormatStmts(p.Body, "  "))
			}
		}
		return digest{
			trace: string(tj), format: res.Format(), spec: specText.String(),
			states: res.Report.States, iters: len(res.Iterations), repaired: res.Repaired,
			tier: res.FinalTier,
		}
	}
	scenarios := []struct {
		name string
		base protogen.Config
	}{
		{"lost-ack", robustBase()},
		{"escalating", protogen.Config{Protocol: spec.HalfHandshake}},
	}
	for _, sc := range scenarios {
		base := run(sc.base, 1)
		for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
			got := run(sc.base, workers)
			if got != base {
				t.Fatalf("%s repair loop not worker-invariant at %d workers:\nbase: %+v\ngot:  %+v", sc.name, workers, base, got)
			}
		}
	}
}

// TestClassify pins the classifier's mode table.
func TestClassify(t *testing.T) {
	robust := robustBase()
	half := protogen.Config{Protocol: spec.HalfHandshake}
	baseline := protogen.Config{Protocol: spec.FullHandshake}
	type tcase struct {
		name string
		v    verify.Violation
		cfg  protogen.Config
		want Mode
	}
	var cases []tcase
	arbFull := baseline
	arbFull.Arbitrate = true
	arbHalf := half
	arbHalf.Arbitrate = true
	dropCex := &verify.Counterexample{Drops: []fault.Fault{{Class: fault.DropEvent}}}
	cases = append(cases,
		tcase{"livelock-robust", verify.Violation{Kind: verify.Livelock}, robust, ModeLasso},
		tcase{"livelock-baseline", verify.Violation{Kind: verify.Livelock}, baseline, ModeUnknown},
		tcase{"conflict-half", verify.Violation{Kind: verify.DriverConflict}, half, ModeTurnaround},
		tcase{"conflict-full", verify.Violation{Kind: verify.DriverConflict}, baseline, ModeUnknown},
		tcase{"deadlock", verify.Violation{Kind: verify.Deadlock}, robust, ModeUnknown},
		// Corruption without a dropped transition (no cex) stays unknown:
		// the lost-ack diagnosis is specifically about a lost strobe.
		tcase{"corruption-no-drop", verify.Violation{Kind: verify.Corruption}, robust, ModeUnknown},
		// Arbitration-shaped conflicts: a driver conflict on an arbitrated
		// bus diagnoses to the grant machinery regardless of protocol —
		// tier-2 mutations are chosen by diagnosis, not grammar position.
		tcase{"conflict-arb-full", verify.Violation{Kind: verify.DriverConflict}, arbFull, ModeArbitration},
		tcase{"conflict-arb-half", verify.Violation{Kind: verify.DriverConflict}, arbHalf, ModeArbitration},
		// The missed pulse: a drop-provoked corruption or deadlock on the
		// half handshake, whose only fix is protocol selection.
		tcase{"corruption-drop-half", verify.Violation{Kind: verify.Corruption, Cex: dropCex}, half, ModeMissedPulse},
		tcase{"deadlock-drop-half", verify.Violation{Kind: verify.Deadlock, Cex: dropCex}, half, ModeMissedPulse},
		tcase{"deadlock-no-drop-half", verify.Violation{Kind: verify.Deadlock}, half, ModeUnknown},
		// On the robust full handshake the same drop-provoked corruption
		// stays the lost-ack diagnosis.
		tcase{"corruption-drop-robust", verify.Violation{Kind: verify.Corruption, Cex: dropCex}, robust, ModeLostAck},
	)
	for _, tc := range cases {
		if got := Classify(&tc.v, tc.cfg); got != tc.want {
			t.Errorf("%s: Classify = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestMutationKnobs pins Apply/Applied/Applicable over the grammar.
func TestMutationKnobs(t *testing.T) {
	robust := robustBase()
	half := protogen.Config{Protocol: spec.HalfHandshake}
	for _, m := range Grammar() {
		if m == SelectFullHandshake {
			// Protocol selection is satisfied, not "off", on a robust
			// full-handshake base: the full handshake is already the
			// selected protocol, so the loop must never pick it there.
			if !m.Applied(robust) {
				t.Errorf("%s not already satisfied on the robust full handshake", m)
			}
			continue
		}
		if m.Applied(robust) {
			t.Errorf("%s applied on a fresh config", m)
		}
		c := robust
		c.Arbitrate = true // admits the tier-2 knobs; harmless elsewhere
		m.Apply(&c)
		if !m.Applied(c) {
			t.Errorf("%s not applied after Apply", m)
		}
	}
	// Applicability split: the four full-handshake knobs on robust-full,
	// TurnFlush on half.
	for _, m := range []Mutation{CommitAck, ReleaseStale, AckSeq, EpochResync} {
		if !m.Applicable(robust) {
			t.Errorf("%s should be applicable on robust full handshake", m)
		}
		if m.Applicable(half) {
			t.Errorf("%s should not be applicable on the half handshake", m)
		}
	}
	if TurnFlush.Applicable(robust) {
		t.Error("TurnFlush should not be applicable on the full handshake")
	}
	if !TurnFlush.Applicable(half) {
		t.Error("TurnFlush should be applicable on the half handshake")
	}
	// Tier-2 arbitration knobs need an arbitrated bus.
	arb := robust
	arb.Arbitrate = true
	arbHalf := half
	arbHalf.Arbitrate = true
	for _, m := range []Mutation{GrantHold, BusPark} {
		if m.Applicable(robust) || m.Applicable(half) {
			t.Errorf("%s should not be applicable without Arbitrate", m)
		}
		if !m.Applicable(arb) || !m.Applicable(arbHalf) {
			t.Errorf("%s should be applicable on arbitrated buses", m)
		}
		if m.Tier() != 2 {
			t.Errorf("%s tier = %d, want 2", m, m.Tier())
		}
	}
	// Protocol selection: only the half handshake escalates, and the
	// result is the 8/2 robust full handshake with TurnFlush cleared.
	if SelectFullHandshake.Tier() != 3 {
		t.Errorf("SelectFullHandshake tier = %d, want 3", SelectFullHandshake.Tier())
	}
	if SelectFullHandshake.Applicable(robust) {
		t.Error("SelectFullHandshake should not be applicable when the full handshake is already selected")
	}
	if !SelectFullHandshake.Applicable(half) {
		t.Error("SelectFullHandshake should be applicable on the half handshake")
	}
	sel := half
	sel.TurnFlush = true
	SelectFullHandshake.Apply(&sel)
	if sel.Protocol != spec.FullHandshake || !sel.Robust || sel.TurnFlush {
		t.Fatalf("escalated config malformed: %+v", sel)
	}
	if sel.TimeoutClocks != EscalateTimeoutClocks || sel.MaxRetries != EscalateMaxRetries {
		t.Fatalf("escalation did not default the 8/2 timers: %+v", sel)
	}
	if err := sel.Validate(); err != nil {
		t.Fatalf("escalated config does not validate: %v", err)
	}
	// Pre-set timers survive the swap.
	timed := protogen.Config{Protocol: spec.HalfHandshake, Robust: true, TimeoutClocks: 12}
	SelectFullHandshake.Apply(&timed)
	if timed.TimeoutClocks != 12 || timed.MaxRetries != EscalateMaxRetries {
		t.Fatalf("escalation clobbered preset timers: %+v", timed)
	}
}
