package sim

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/spec"
)

// TestWaitUntilForTimedOutResult checks both sides of the bounded-wait
// result variable: an expired wait assigns true, a satisfied one false.
func TestWaitUntilForTimedOutResult(t *testing.T) {
	sys := spec.NewSystem("t")
	m := sys.AddModule("m")
	b := m.AddBehavior(spec.NewBehavior("B"))
	src := m.AddBehavior(spec.NewBehavior("SRC"))
	sig := sys.AddGlobal(spec.NewSignal("S", spec.Bit))
	first := m.AddVariable(spec.NewVar("first", spec.Integer))
	second := m.AddVariable(spec.NewVar("second", spec.Integer))
	tmo := b.AddVar("tmo", spec.Bool)

	record := func(dst *spec.Variable) spec.Stmt {
		return &spec.If{
			Cond: spec.Ref(tmo),
			Then: []spec.Stmt{spec.AssignVar(spec.Ref(dst), spec.Int(1))},
			Else: []spec.Stmt{spec.AssignVar(spec.Ref(dst), spec.Int(2))},
		}
	}
	b.Body = []spec.Stmt{
		// S never rises within 10 clocks: the wait expires.
		spec.WaitUntilFor(spec.Eq(spec.Ref(sig), spec.VecString("1")), 10, tmo),
		record(first),
		// SRC raises S at clock 20, well inside the second bound.
		spec.WaitUntilFor(spec.Eq(spec.Ref(sig), spec.VecString("1")), 1000, tmo),
		record(second),
	}
	src.Body = []spec.Stmt{
		spec.WaitFor(20),
		spec.AssignSig(spec.Ref(sig), spec.VecString("1")),
	}

	res := mustRun(t, sys, Config{})
	if got := res.Final("m", "first"); !got.Equal(IntVal{V: 1}) {
		t.Errorf("first = %s, want 1 (wait expired)", got)
	}
	if got := res.Final("m", "second"); !got.Equal(IntVal{V: 2}) {
		t.Errorf("second = %s, want 2 (event before timeout)", got)
	}
}

// mutateSystem builds a driver raising field A of a two-field record
// signal at clock 5, and a watcher recording both fields once A rises.
func mutateSystem() (*spec.System, *spec.Variable) {
	sys := spec.NewSystem("t")
	m := sys.AddModule("m")
	rec := spec.RecordType{Name: "wires", Fields: []spec.Field{
		{Name: "A", Type: spec.Bit},
		{Name: "B", Type: spec.Bit},
	}}
	sig := sys.AddGlobal(spec.NewSignal("S", rec))
	drv := m.AddBehavior(spec.NewBehavior("DRV"))
	drv.Body = []spec.Stmt{
		spec.WaitFor(5),
		spec.AssignSig(spec.FieldOf(spec.Ref(sig), "A"), spec.VecString("1")),
	}
	return sys, sig
}

// TestMutateHookSuppressesChange returns the old value from the hook:
// the transition must vanish and fire no event.
func TestMutateHookSuppressesChange(t *testing.T) {
	sys, sig := mutateSystem()
	m := sys.Modules[0]
	w := m.AddBehavior(spec.NewBehavior("W"))
	seen := m.AddVariable(spec.NewVar("seen", spec.Integer))
	tmo := w.AddVar("tmo", spec.Bool)
	w.Body = []spec.Stmt{
		spec.WaitUntilFor(spec.Eq(spec.FieldOf(spec.Ref(sig), "A"), spec.VecString("1")), 50, tmo),
		&spec.If{
			Cond: spec.Not(spec.Ref(tmo)),
			Then: []spec.Stmt{spec.AssignVar(spec.Ref(seen), spec.Int(1))},
		},
	}
	res := mustRun(t, sys, Config{
		Mutate: func(now int64, s *spec.Variable, old, next Value) Mutation {
			return Mutation{Now: old.Copy()}
		},
	})
	if res.SignalEvents["S"] != 0 {
		t.Errorf("suppressed transition fired %d events", res.SignalEvents["S"])
	}
	if got := res.Final("m", "seen"); got.Equal(IntVal{V: 1}) {
		t.Error("watcher saw a transition the hook suppressed")
	}
}

// TestMutateHookDelayedMerge drops A's rise and re-drives it 10 clocks
// later via Mutation.Later. Meanwhile B rises at clock 8; the late
// re-commit must not revert B (per-field merge over the then-current
// value).
func TestMutateHookDelayedMerge(t *testing.T) {
	sys, sig := mutateSystem()
	m := sys.Modules[0]
	drv2 := m.AddBehavior(spec.NewBehavior("DRV2"))
	drv2.Body = []spec.Stmt{
		spec.WaitFor(8),
		spec.AssignSig(spec.FieldOf(spec.Ref(sig), "B"), spec.VecString("1")),
	}
	w := m.AddBehavior(spec.NewBehavior("W"))
	aAt := m.AddVariable(spec.NewVar("aAt", spec.Integer))
	bVal := m.AddVariable(spec.NewVar("bVal", spec.Integer))
	w.Body = []spec.Stmt{
		spec.WaitUntilFor(spec.Eq(spec.FieldOf(spec.Ref(sig), "A"), spec.VecString("1")), 100, nil),
		&spec.If{
			Cond: spec.Eq(spec.FieldOf(spec.Ref(sig), "B"), spec.VecString("1")),
			Then: []spec.Stmt{spec.AssignVar(spec.Ref(bVal), spec.Int(1))},
		},
		spec.AssignVar(spec.Ref(aAt), spec.Int(1)),
	}
	mutated := false
	res := mustRun(t, sys, Config{
		Mutate: func(now int64, s *spec.Variable, old, next Value) Mutation {
			if mutated || now != 5 {
				return Mutation{}
			}
			mutated = true
			// Suppress now, re-drive the intended value 10 clocks later.
			return Mutation{Now: old.Copy(), Later: next.Copy(), Delay: 10}
		},
	})
	if got := res.Final("m", "aAt"); !got.Equal(IntVal{V: 1}) {
		t.Fatal("delayed transition never arrived")
	}
	if got := res.Final("m", "bVal"); !got.Equal(IntVal{V: 1}) {
		t.Error("late re-commit of A reverted B's independent rise")
	}
	if res.ProcessEnd["W"] != 15 {
		t.Errorf("A arrived at clock %d, want 15 (5 + delay 10)", res.ProcessEnd["W"])
	}
}

// TestDeadlockErrorBusState checks that a deadlock on a global record
// signal (a generated bus) reports its control-line state.
func TestDeadlockErrorBusState(t *testing.T) {
	sys, sig := mutateSystem()
	m := sys.Modules[0]
	w := m.AddBehavior(spec.NewBehavior("W"))
	// DRV raises A at clock 5 and finishes; W waits forever for B.
	w.Body = []spec.Stmt{
		spec.WaitUntil(spec.Eq(spec.FieldOf(spec.Ref(sig), "B"), spec.VecString("1"))),
	}
	s, err := NewEngine(sys)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Run(Config{})
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	joined := strings.Join(dl.Bus, " ")
	if !strings.Contains(joined, "S.A='1'") || !strings.Contains(joined, "S.B='0'") {
		t.Errorf("DeadlockError.Bus = %q, want S.A='1' and S.B='0'", joined)
	}
}
