package core

import (
	"testing"

	"repro/internal/repair"
	"repro/internal/sim"
	"repro/internal/verify"
	"repro/internal/workloads"
)

// TestSynthesizeWithVerifyPass: Options.Verify bolts the model checker
// onto the synthesis flow — the fault-free baseline PQ refinement must
// come back provably clean.
func TestSynthesizeWithVerifyPass(t *testing.T) {
	sys, _ := workloads.PQ()
	rep, err := Synthesize(sys, Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verify == nil {
		t.Fatal("Options.Verify set but Report.Verify is nil")
	}
	if !rep.Verify.Clean() {
		t.Fatalf("baseline PQ refinement not clean:\n%s", rep.Verify.Format())
	}
	if rep.Verify.States == 0 || rep.Verify.Transitions == 0 {
		t.Fatalf("degenerate exploration: %+v", rep.Verify)
	}
}

// TestSynthesizeVerifyFindsDropDeadlock: the same flow with a 1-drop
// wire-fault budget must surface the ideal-wire protocol's fragility —
// a dropped strobe wedges the handshake — as a deadlock counterexample,
// without failing synthesis itself.
func TestSynthesizeVerifyFindsDropDeadlock(t *testing.T) {
	sys, _ := workloads.PQ()
	rep, err := Synthesize(sys, Options{Verify: true, VerifyDrops: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verify == nil {
		t.Fatal("Options.Verify set but Report.Verify is nil")
	}
	for _, v := range rep.Verify.Violations {
		if v.Kind == verify.Deadlock {
			return
		}
	}
	t.Fatalf("no deadlock found under a 1-drop budget:\n%s", rep.Verify.Format())
}

// TestSynthesizeRepairMode: Options.Repair turns the verify pass into
// the CEGIS loop. The hardened PQSolo refinement silently corrupts at
// drop budget 1; the flow must converge on the repaired variant, hand
// back its exhaustively clean verdict, and refine the caller's system
// in place to that variant.
func TestSynthesizeRepairMode(t *testing.T) {
	sys, _ := workloads.PQSolo()
	rep, err := Synthesize(sys, Options{
		Robust: true, TimeoutClocks: 8, MaxRetries: 2,
		Repair: true, VerifyDrops: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repair == nil {
		t.Fatal("Options.Repair set but Report.Repair is nil")
	}
	if !rep.Repair.Verified() {
		t.Fatalf("repair did not converge:\n%s", rep.Repair.Format())
	}
	want := []repair.Mutation{repair.CommitAck, repair.ReleaseStale}
	if len(rep.Repair.Mutations) != len(want) || rep.Repair.Mutations[0] != want[0] || rep.Repair.Mutations[1] != want[1] {
		t.Fatalf("mutations = %v, want %v", rep.Repair.Mutations, want)
	}
	if rep.Verify == nil || !rep.Verify.Clean() {
		t.Fatalf("post-repair verdict not clean: %+v", rep.Verify)
	}
	if !rep.Repair.Config.CommitAck || !rep.Repair.Config.ReleaseStale {
		t.Fatalf("final config missing repair knobs: %+v", rep.Repair.Config)
	}
	// The caller's system was refined with the repaired config: it must
	// execute fault-free to completion and deliver.
	s, err := sim.NewEngine(sys)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(sim.Config{})
	if err != nil {
		t.Fatalf("repaired refinement does not run: %v", err)
	}
	if got := res.Finals["comp2.X"].String(); got != `"0000000000100000"` {
		t.Fatalf("repaired refinement delivered X = %s", got)
	}
}
