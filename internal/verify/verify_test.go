package verify

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/hdl"
	"repro/internal/protogen"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/workloads"
)

func refinePQ(t testing.TB, cfg protogen.Config) (*spec.System, *protogen.Refinement) {
	t.Helper()
	sys, bus := workloads.PQ()
	ref, err := protogen.Generate(sys, bus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys, ref
}

// robustCfg keeps the hardened protocol's timers small so the checker's
// state space stays tight without changing the protocol's shape.
func robustCfg(parity bool) protogen.Config {
	return protogen.Config{
		Protocol: spec.FullHandshake, Robust: true, Parity: parity,
		TimeoutClocks: 8, MaxRetries: 2,
	}
}

func mustCheck(t testing.TB, sys *spec.System, cfg Config) *Report {
	t.Helper()
	rep, err := Check(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// newTestMachine builds the checker's machine for sys the way CheckCtx
// does, for tests that drive the searcher directly.
func newTestMachine(t testing.TB, sys *spec.System, cfg Config) *machine {
	t.Helper()
	eng, err := sim.NewEngine(sys)
	if err != nil {
		t.Fatal(err)
	}
	m, err := newMachine(sys, withDefaults(cfg), eng)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func hasKind(rep *Report, k Kind) *Violation {
	for i := range rep.Violations {
		if rep.Violations[i].Kind == k {
			return &rep.Violations[i]
		}
	}
	return nil
}

// TestFaultFreeBaselineClean: with no fault budget the paper's baseline
// full handshake is deadlock-free, conflict-free and delivers exactly
// the golden finals — the checker must prove it, not just fail to
// disprove it (the report must be complete).
func TestFaultFreeBaselineClean(t *testing.T) {
	sys, _ := refinePQ(t, protogen.Config{Protocol: spec.FullHandshake})
	rep := mustCheck(t, sys, Config{})
	if !rep.Clean() {
		t.Fatalf("baseline fault-free not clean:\n%s", rep.Format())
	}
	if rep.GoldenClocks < 0 {
		t.Fatal("golden simulation failed")
	}
	if rep.States < 10 || rep.Transitions < int64(rep.States)-1 {
		t.Fatalf("implausible exploration: %d states, %d transitions", rep.States, rep.Transitions)
	}
}

// singleWriteSystem carries one write channel: the half handshake's
// single-driver case, where no turnaround contention can exist.
func singleWriteSystem() (*spec.System, *spec.Bus) {
	sys := spec.NewSystem("SW")
	comp1 := sys.AddModule("comp1")
	comp2 := sys.AddModule("comp2")
	p := comp1.AddBehavior(spec.NewBehavior("P"))
	x := comp2.AddVariable(spec.NewVar("X", spec.BitVector(16)))
	p.Body = []spec.Stmt{
		spec.AssignVar(spec.Ref(x), spec.ToVec(spec.Int(32), 16)),
	}
	ch := sys.AddChannel(&spec.Channel{Name: "CH0", Accessor: p, Var: x, Dir: spec.Write})
	bus := &spec.Bus{Name: "B", Channels: []*spec.Channel{ch}, Width: 8}
	sys.Buses = append(sys.Buses, bus)
	return sys, bus
}

func TestFaultFreeHalfHandshakeClean(t *testing.T) {
	sys, bus := singleWriteSystem()
	if _, err := protogen.Generate(sys, bus, protogen.Config{Protocol: spec.HalfHandshake}); err != nil {
		t.Fatal(err)
	}
	rep := mustCheck(t, sys, Config{})
	if !rep.Clean() {
		t.Fatalf("half handshake single-writer not clean:\n%s", rep.Format())
	}
}

// TestBoundsOutOfRange: a drop budget outside 0 to math.MaxInt16 used
// to wrap in the state's 16-bit budget, so 65536 checked the fault-free
// space and reported it clean; it must be refused. A depth bound past
// 32 bits used to wrap too, stopping the search at depth 1.
func TestBoundsOutOfRange(t *testing.T) {
	sys, bus := singleWriteSystem()
	if _, err := protogen.Generate(sys, bus, protogen.Config{Protocol: spec.FullHandshake}); err != nil {
		t.Fatal(err)
	}
	for _, drops := range []int{-1, math.MaxInt16 + 1, 65536} {
		if rep, err := Check(sys, Config{MaxDrops: drops}); err == nil || !strings.Contains(err.Error(), "drop budget") {
			t.Fatalf("MaxDrops %d: err = %v, report %v; want a refusal", drops, err, rep != nil)
		}
	}
	one := mustCheck(t, sys, Config{MaxDrops: 1})
	most := mustCheck(t, sys, Config{MaxDrops: math.MaxInt16})
	if hasKind(most, Deadlock) == nil || most.Incomplete || most.States != one.States {
		t.Fatalf("MaxDrops %d: %d states, incomplete %v, deadlock %v; drop budget 1 reads %d states with a deadlock",
			math.MaxInt16, most.States, most.Incomplete, hasKind(most, Deadlock) != nil, one.States)
	}
	free := mustCheck(t, sys, Config{})
	deep := mustCheck(t, sys, Config{MaxDepth: 1 << 32})
	if deep.Incomplete || deep.States != free.States {
		t.Fatalf("MaxDepth 2^32: %d states, incomplete %q; unbounded reads %d states", deep.States, deep.IncompleteReason, free.States)
	}
}

// TestHalfHandshakeReadTurnaroundContention documents a true finding:
// on the half handshake, a server finishing a read response leaves its
// final START-low write pending when the dispatcher re-checks its
// trigger, phantom-serves another word, and drives DATA/START into the
// accessor's next transaction. The simulator's last-writer-wins delta
// merge masks the contention (the PQ finals survive by schedule luck);
// the checker must expose the multi-driver window.
func TestHalfHandshakeReadTurnaroundContention(t *testing.T) {
	sys, _ := refinePQ(t, protogen.Config{Protocol: spec.HalfHandshake})
	rep := mustCheck(t, sys, Config{})
	if hasKind(rep, DriverConflict) == nil {
		t.Fatalf("read-turnaround contention not found:\n%s", rep.Format())
	}
}

// TestBaselineDroppedStrobeDeadlock is the issue's acceptance demo: one
// dropped strobe anywhere in the baseline handshake wedges the system,
// and the checker returns the concrete minimal interleaving, which
// replays through the simulator to the same deadlock.
func TestBaselineDroppedStrobeDeadlock(t *testing.T) {
	sys, _ := refinePQ(t, protogen.Config{Protocol: spec.FullHandshake})
	rep := mustCheck(t, sys, Config{MaxDrops: 1})
	v := hasKind(rep, Deadlock)
	if v == nil {
		t.Fatalf("no deadlock found under a 1-drop budget:\n%s", rep.Format())
	}
	if v.Cex == nil || len(v.Cex.Drops) == 0 {
		t.Fatalf("deadlock counterexample has no injected fault: %+v", v)
	}
	hasDropStep := false
	for _, s := range v.Cex.Steps {
		if s.Drop != "" {
			hasDropStep = true
		}
	}
	if !hasDropStep {
		t.Fatalf("no step marks the dropped transition:\n%s", v.Cex.Format())
	}

	r, err := v.Cex.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if !r.Reproduced {
		t.Fatalf("replay did not reproduce the deadlock: %s\ncex:\n%s", r.Outcome, v.Cex.Format())
	}
	if !strings.Contains(r.Outcome, "deadlock") {
		t.Fatalf("replay outcome %q does not mention the deadlock", r.Outcome)
	}
}

// pOnlyPQ is workloads.PQSolo: PQ with the staggered Q accessor
// stripped, keeping the robust protocol provable exhaustively.
func pOnlyPQ() (*spec.System, *spec.Bus) {
	return workloads.PQSolo()
}

// TestRobustSurvivesDropBudget: the hardened protocol must be provably
// deadlock-free under the same 1-drop budget that kills the baseline —
// timeouts, retransmission and clean aborts recover every drop position
// that wedges the ideal-wire protocol.
//
// The exhaustive search does surface one genuine residual window the
// randomized fault campaigns never hit: dropping the accessor's *final*
// START fall. The serving server's bounded wait expires and it aborts
// without committing, but the DONE fall its abort path drives (clearing
// the server-owned line, as any release must) is indistinguishable to
// the accessor from a success acknowledgment — a two-generals window,
// so the accessor never retries (silent corruption) and the stuck-high
// START leaves the watchdogs cycling (bounded-response lasso). Both are
// real behaviors of the generated design, confirmed by simulator
// replay below — not model artifacts. What this test pins down is the
// robustness claim that holds: no reachable deadlock, no multi-driver
// contention, and every corruption the checker reports reproduces in
// the simulator.
func TestRobustSurvivesDropBudget(t *testing.T) {
	sys, bus := pOnlyPQ()
	ref, err := protogen.Generate(sys, bus, robustCfg(false))
	if err != nil {
		t.Fatal(err)
	}
	rep := mustCheck(t, sys, Config{MaxDrops: 1, AbortVars: ref.AbortKeys()})
	if rep.Incomplete {
		t.Fatalf("exploration incomplete (%s); raise bounds for a real verdict", rep.IncompleteReason)
	}
	if v := hasKind(rep, Deadlock); v != nil {
		t.Fatalf("robust protocol deadlocks under 1-drop budget:\n%s", rep.Format())
	}
	if v := hasKind(rep, DriverConflict); v != nil {
		t.Fatalf("robust protocol has driver contention under 1-drop budget:\n%s", rep.Format())
	}
	// The lost-ack-fall window must be found — and must be real.
	v := hasKind(rep, Corruption)
	if v == nil {
		t.Fatalf("expected the lost-ack-fall corruption window to be found:\n%s", rep.Format())
	}
	r, err := v.Cex.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if !r.Reproduced {
		t.Fatalf("corruption did not reproduce in the simulator (%s) — model artifact?\n%s",
			r.Outcome, v.Cex.Format())
	}
}

// TestRobustFullPQBoundedNoViolation: the full two-accessor robust
// workload exceeds an exhaustive budget (the stagger counter
// interleaves with every retry-timer phase), but BFS order guarantees
// any shallow violation would surface first — within the bound there
// must be none.
func TestRobustFullPQBoundedNoViolation(t *testing.T) {
	sys, ref := refinePQ(t, robustCfg(false))
	rep := mustCheck(t, sys, Config{MaxDrops: 1, AbortVars: ref.AbortKeys(), MaxStates: 50_000})
	if len(rep.Violations) > 0 {
		t.Fatalf("robust protocol violated within bounded search:\n%s", rep.Format())
	}
}

// TestBaselineDroppedDataCorruption: dropping a DATA word transition on
// the ideal-wire protocol completes the handshake but delivers a wrong
// value — silent corruption the delivery check must catch and the
// simulator must reproduce.
func TestBaselineDroppedDataCorruption(t *testing.T) {
	sys, _ := refinePQ(t, protogen.Config{Protocol: spec.FullHandshake})
	rep := mustCheck(t, sys, Config{MaxDrops: 1, DropFields: []string{"DATA"}})
	v := hasKind(rep, Corruption)
	if v == nil {
		t.Fatalf("no corruption found when DATA words may be dropped:\n%s", rep.Format())
	}
	r, err := v.Cex.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if !r.Reproduced {
		t.Fatalf("replay did not reproduce the corruption: %s\ncex:\n%s", r.Outcome, v.Cex.Format())
	}
}

// TestWorkerInvariance: the parallel exploration must be observably
// deterministic — identical state count, transition count, depth and
// violation list at any worker count.
func TestWorkerInvariance(t *testing.T) {
	t.Run("baseline-drop1", func(t *testing.T) {
		mk := func(workers int) checkDigest {
			sys, _ := refinePQ(t, protogen.Config{Protocol: spec.FullHandshake})
			return digestOf(mustCheck(t, sys, Config{MaxDrops: 1, Workers: workers}))
		}
		ref := mk(1)
		for _, workers := range []int{2, 8} {
			if got := mk(workers); got != ref {
				t.Fatalf("workers=%d diverged:\n%+v\nwant (workers=1):\n%+v", workers, got, ref)
			}
		}
	})
	// The robust drop-1 runs stop partway through a layer's merge, on a
	// state bound or a violation cap, and each is compared with a table.
	// States that share a key can still differ in a local that one of
	// them never wrote (it keys as its initial value, but a store into
	// it fails), so the first arrival of a state in merge order must
	// win: it fixes the node's number, its parent and the row its
	// successors expand from. A numbering that moved would change which
	// states the cut admits, so the counts and the fingerprint would
	// show it; the counterexamples follow the winning parents.
	cases := []struct {
		name          string
		ref           protogen.Config
		cfg           Config
		states        int
		transitions   int64
		fingerprint   string
		incomplete    string
		violationsSum string
	}{
		{"robust-drop1-max-states",
			protogen.Config{Protocol: spec.FullHandshake, Robust: true}, Config{MaxStates: 60_000},
			60_001, 72_713, "1808c2b55f56cc44-667039eef0c14504", "state bound 60000 reached", "60a0cb18beed0b1d"},
		{"robust-drop1-max-violations",
			protogen.Config{Protocol: spec.FullHandshake, Robust: true, TimeoutClocks: 6, MaxRetries: 1},
			Config{MaxStates: 1_000_000, MaxViolations: 2},
			159_862, 195_320, "2824df4e8304bb68-3286658b4349b500", "violation cap 2 reached", "0549305418b8a9a1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() {
				t.Skip("four robust drop-1 explorations")
			}
			for _, workers := range []int{1, 2, 3, 8} {
				sys, r := refinePQ(t, tc.ref)
				cfg := tc.cfg
				cfg.MaxDrops, cfg.AbortVars, cfg.Workers = 1, r.AbortKeys(), workers
				d := digestOf(mustCheck(t, sys, cfg))
				if d.states != tc.states || d.transitions != tc.transitions || d.fingerprint != tc.fingerprint ||
					d.incomplete != tc.incomplete || d.sum() != tc.violationsSum {
					t.Errorf("%d workers: %d states, %d transitions, fingerprint %s, %q, violations %s; want %d, %d, %s, %q, %s",
						workers, d.states, d.transitions, d.fingerprint, d.incomplete, d.sum(),
						tc.states, tc.transitions, tc.fingerprint, tc.incomplete, tc.violationsSum)
				}
			}
		})
	}
}

// TestReductionSoundness: sleep-set reduction may only shrink the state
// count, never change the verdict.
func TestReductionSoundness(t *testing.T) {
	run := func(noRed bool) *Report {
		sys, _ := refinePQ(t, protogen.Config{Protocol: spec.FullHandshake})
		return mustCheck(t, sys, Config{MaxDrops: 1, NoReduction: noRed})
	}
	red, full := run(false), run(true)
	if red.States > full.States {
		t.Fatalf("reduction grew the state space: %d reduced vs %d full", red.States, full.States)
	}
	kinds := func(r *Report) string {
		var ks []string
		for _, v := range r.Violations {
			ks = append(ks, v.Kind.String())
		}
		return strings.Join(ks, ",")
	}
	if kinds(red) != kinds(full) {
		t.Fatalf("verdicts differ: reduced [%s] vs full [%s]", kinds(red), kinds(full))
	}
}

// unstaggeredPQ is the PQ workload with Q's stagger delay removed: both
// accessors open transactions on the shared bus concurrently — the race
// the paper's walkthrough avoids by construction.
func unstaggeredPQ() (*spec.System, *spec.Bus) {
	sys, bus := workloads.PQ()
	for _, m := range sys.Modules {
		for _, b := range m.Behaviors {
			if b.Name != "Q" {
				continue
			}
			var body []spec.Stmt
			for _, st := range b.Body {
				if w, ok := st.(*spec.Wait); ok && w.HasFor && w.Until == nil {
					continue
				}
				body = append(body, st)
			}
			b.Body = body
		}
	}
	return sys, bus
}

// TestUnstaggeredAccessorsConflict: without the stagger (and without
// arbitration) the checker must find an interleaving where P and Q
// drive the shared handshake lines concurrently.
func TestUnstaggeredAccessorsConflict(t *testing.T) {
	sys, bus := unstaggeredPQ()
	if _, err := protogen.Generate(sys, bus, protogen.Config{Protocol: spec.FullHandshake}); err != nil {
		t.Fatal(err)
	}
	rep := mustCheck(t, sys, Config{})
	if hasKind(rep, DriverConflict) == nil {
		t.Fatalf("no driver conflict found for two concurrent accessors:\n%s", rep.Format())
	}
}

// TestArbitrationSerializesAccessors: adding REQ/GRANT arbitration to
// the same unstaggered workload removes every driver conflict.
func TestArbitrationSerializesAccessors(t *testing.T) {
	sys, bus := unstaggeredPQ()
	if _, err := protogen.Generate(sys, bus, protogen.Config{Protocol: spec.FullHandshake, Arbitrate: true}); err != nil {
		t.Fatal(err)
	}
	rep := mustCheck(t, sys, Config{})
	if v := hasKind(rep, DriverConflict); v != nil {
		t.Fatalf("arbitrated bus still conflicts: %s\n%s", v.Message, rep.Format())
	}
	if v := hasKind(rep, Deadlock); v != nil {
		t.Fatalf("arbitrated bus deadlocks: %s\n%s", v.Message, rep.Format())
	}
}

// livelockSystem holds START asserted forever while toggling DATA — a
// transaction that never completes without ever deadlocking.
func livelockSystem() *spec.System {
	sys := spec.NewSystem("LL")
	m := sys.AddModule("m")
	rec := spec.RecordType{Name: "R", Fields: []spec.Field{
		{Name: "START", Type: spec.Bit},
		{Name: "DATA", Type: spec.BitVector(4)},
	}}
	sig := sys.AddGlobal(spec.NewSignal("S", rec))
	a := m.AddBehavior(spec.NewBehavior("A"))
	m2 := sys.AddModule("m2")
	v := m2.AddVariable(spec.NewVar("V", spec.BitVector(4)))
	ch := sys.AddChannel(&spec.Channel{Name: "CH", Accessor: a, Var: v, Dir: spec.Write})
	sys.Buses = append(sys.Buses, &spec.Bus{
		Name: "S", Signal: sig, Record: rec, Protocol: spec.FullHandshake,
		Channels: []*spec.Channel{ch},
	})
	a.Body = []spec.Stmt{
		spec.AssignSig(spec.FieldOf(spec.Ref(sig), "START"), spec.Int(1)),
		&spec.Loop{Body: []spec.Stmt{
			spec.AssignSig(spec.FieldOf(spec.Ref(sig), "DATA"), spec.Int(1)),
			spec.WaitFor(1),
			spec.AssignSig(spec.FieldOf(spec.Ref(sig), "DATA"), spec.Int(0)),
			spec.WaitFor(1),
		}},
	}
	return sys
}

func TestLivelockDetected(t *testing.T) {
	rep := mustCheck(t, livelockSystem(), Config{MaxClocks: 2000})
	v := hasKind(rep, Livelock)
	if v == nil {
		t.Fatalf("no bounded-response violation on a never-closing transaction:\n%s", rep.Format())
	}
	if v.Cex == nil || v.Cex.LoopStart < 0 {
		t.Fatalf("livelock counterexample has no lasso: %+v", v.Cex)
	}
	r, err := v.Cex.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if !r.Reproduced {
		t.Fatalf("livelock replay did not hit the clock bound: %s", r.Outcome)
	}
}

// TestWaitOnRejected: constructs outside the checker's model are
// refused with an error naming the construct, never mis-modelled:
// sensitivity-list waits (fixed-delay buses are rate-matched by
// construction), waits that never end, and recursive procedures (calls
// are inlined, so the simulator's compiler refuses them too).
func TestWaitOnRejected(t *testing.T) {
	cases := []struct {
		name string
		body func(b *spec.Behavior, sig *spec.Variable) []spec.Stmt
		want string
	}{
		{"wait-on", func(_ *spec.Behavior, sig *spec.Variable) []spec.Stmt {
			return []spec.Stmt{spec.WaitOn(sig)}
		}, "'wait on' sensitivity lists are not supported"},
		{"wait-forever", func(*spec.Behavior, *spec.Variable) []spec.Stmt {
			return []spec.Stmt{&spec.Wait{}}
		}, "'wait' forever cannot be model-checked"},
		{"recursion", func(b *spec.Behavior, _ *spec.Variable) []spec.Stmt {
			proc := &spec.Procedure{Name: "rec"}
			proc.Body = []spec.Stmt{spec.CallProc(proc)}
			b.Procedures = []*spec.Procedure{proc}
			return []spec.Stmt{spec.CallProc(proc)}
		}, "procedure rec recurses"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys := spec.NewSystem("WO")
			sig := sys.AddGlobal(spec.NewSignal("G", spec.Bit))
			a := sys.AddModule("m").AddBehavior(spec.NewBehavior("A"))
			a.Body = tc.body(a, sig)
			if _, err := Check(sys, Config{}); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Check = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// TestCounterexampleVCD: the deadlock trace dumps to a parseable VCD
// with the bus signal declared and at least one value change.
func TestCounterexampleVCD(t *testing.T) {
	sys, _ := refinePQ(t, protogen.Config{Protocol: spec.FullHandshake})
	rep := mustCheck(t, sys, Config{MaxDrops: 1})
	v := hasKind(rep, Deadlock)
	if v == nil {
		t.Fatalf("no deadlock to dump:\n%s", rep.Format())
	}
	var buf bytes.Buffer
	if err := v.Cex.WriteVCD(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"$var", "B", "$enddefinitions", "#"} {
		if !strings.Contains(out, want) {
			t.Fatalf("VCD output missing %q:\n%.400s", want, out)
		}
	}
}

// TestSearchFreedAtNextGC: a finished search is garbage at the next
// collection. A sync.Pool embedded in the searcher once kept it, and
// every state it stored, alive through one more collection (the
// runtime's pool registry points into the struct), so a caller running
// searches back to back started each one on top of the last.
func TestSearchFreedAtNextGC(t *testing.T) {
	sys, _ := refinePQ(t, protogen.Config{Protocol: spec.FullHandshake})
	sr := newSearcher(newTestMachine(t, sys, Config{MaxDrops: 1}))
	if err := sr.run(); err != nil {
		t.Fatal(err)
	}
	freed := make(chan struct{})
	runtime.SetFinalizer(sr, func(*searcher) { close(freed) })
	sr = nil
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(5 * time.Second):
		t.Fatal("the searcher survived a collection after its search")
	}
}

// TestCorruptionReplayOrder: a replay lists the variables that differ
// from the golden run in sorted order. It once ranged over a map, so
// one counterexample printed comp2.MEM and comp2.X in either order
// from run to run; every replay of it must now print the same message.
func TestCorruptionReplayOrder(t *testing.T) {
	sys, ref := refinePQ(t, protogen.Config{Protocol: spec.FullHandshake, Robust: true})
	rep := mustCheck(t, sys, Config{MaxDrops: 1, MaxStates: 150_000, AbortVars: ref.AbortKeys()})
	v := hasKind(rep, Corruption)
	if v == nil {
		t.Fatalf("no corruption found within the bound:\n%s", rep.Format())
	}
	for i := 0; i < 32; i++ {
		r, err := v.Cex.Replay()
		if err != nil {
			t.Fatal(err)
		}
		mem, x := strings.Index(r.Outcome, "comp2.MEM = "), strings.Index(r.Outcome, "; comp2.X = ")
		if !r.Reproduced || !strings.HasPrefix(r.Outcome, "silent data corruption: ") || mem < 0 || x < mem {
			t.Fatalf("replay %d: %s\nwant comp2.MEM, then comp2.X", i, r.Outcome)
		}
	}
}

// TestReplayComparesFullFinals: a corruption whose finals differ from
// the golden run's only in comp2.MEM(60) replays as reproduced. P and Q
// race to store MEM(60); the golden run lets Q store last, and the
// checker finds the order where P does (P's local V, which saw Q's
// store, keeps that terminal state apart from the golden one under any
// state key). MEM renders only its first nine elements as a string, so
// a replay that compared renderings would report that the finals match
// the golden run.
func TestReplayComparesFullFinals(t *testing.T) {
	sys, err := hdl.Parse(`
system Race is
  module comp1 is
    behavior P is
      variable V : bit_vector(15 downto 0);
    begin
      V := MEM(60);
      MEM(60) := 1;
    end behavior;
    behavior Q is
    begin
      MEM(60) := 2;
    end behavior;
  end module;
  module comp2 is
    variable MEM : array(0 to 63) of bit_vector(15 downto 0);
  end module;
end system;`)
	if err != nil {
		t.Fatal(err)
	}
	rep := mustCheck(t, sys, Config{})
	v := hasKind(rep, Corruption)
	if v == nil {
		t.Fatalf("no corruption found:\n%s", rep.Format())
	}
	r, err := v.Cex.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if !r.Reproduced || !strings.HasPrefix(r.Outcome, "silent data corruption: comp2.MEM = ") {
		t.Fatalf("replay: reproduced=%v, %s\ncex:\n%s", r.Reproduced, r.Outcome, v.Cex.Format())
	}
}
