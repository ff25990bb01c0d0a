package sim

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/bits"
	"repro/internal/estimate"
	"repro/internal/spec"
)

// oneModuleSystem wraps a single behavior in a runnable system.
func oneModuleSystem(b *spec.Behavior) *spec.System {
	sys := spec.NewSystem("t")
	m := sys.AddModule("m")
	m.AddBehavior(b)
	return sys
}

func mustRun(t *testing.T, sys *spec.System, cfg Config) *Result {
	t.Helper()
	s, err := NewEngine(sys)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestStraightLineComputation(t *testing.T) {
	sys := spec.NewSystem("t")
	m := sys.AddModule("m")
	b := m.AddBehavior(spec.NewBehavior("B"))
	out := m.AddVariable(spec.NewVar("out", spec.Integer))
	x := b.AddVar("x", spec.Integer)
	b.Body = []spec.Stmt{
		spec.AssignVar(spec.Ref(x), spec.Int(5)),
		spec.AssignVar(spec.Ref(x), spec.Add(spec.Ref(x), spec.Int(37))),
		spec.AssignVar(spec.Ref(out), spec.Ref(x)),
	}
	res := mustRun(t, sys, Config{})
	if got := res.Final("m", "out"); !got.Equal(IntVal{V: 42}) {
		t.Fatalf("out = %s", got)
	}
	if res.Clocks != 0 {
		t.Fatalf("pure computation advanced time to %d", res.Clocks)
	}
}

func TestForLoopAndArray(t *testing.T) {
	sys := spec.NewSystem("t")
	m := sys.AddModule("m")
	b := m.AddBehavior(spec.NewBehavior("B"))
	mem := m.AddVariable(spec.NewVar("mem", spec.Array(8, spec.Integer)))
	i := b.AddVar("i", spec.Integer)
	b.Body = []spec.Stmt{
		&spec.For{Var: i, From: spec.Int(0), To: spec.Int(7), Body: []spec.Stmt{
			spec.AssignVar(spec.At(spec.Ref(mem), spec.Ref(i)), spec.Mul(spec.Ref(i), spec.Ref(i))),
		}},
	}
	res := mustRun(t, sys, Config{})
	got := res.Final("m", "mem").(ArrayVal)
	for j := 0; j < 8; j++ {
		if !got.Elems[j].Equal(IntVal{V: int64(j * j)}) {
			t.Fatalf("mem[%d] = %s", j, got.Elems[j])
		}
	}
}

func TestWhileExitAndIf(t *testing.T) {
	sys := spec.NewSystem("t")
	m := sys.AddModule("m")
	b := m.AddBehavior(spec.NewBehavior("B"))
	n := m.AddVariable(spec.NewVar("n", spec.Integer))
	b.Body = []spec.Stmt{
		&spec.Loop{Body: []spec.Stmt{
			spec.AssignVar(spec.Ref(n), spec.Add(spec.Ref(n), spec.Int(1))),
			&spec.If{
				Cond: spec.Ge(spec.Ref(n), spec.Int(10)),
				Then: []spec.Stmt{&spec.Exit{}},
			},
		}},
	}
	res := mustRun(t, sys, Config{})
	if got := res.Final("m", "n"); !got.Equal(IntVal{V: 10}) {
		t.Fatalf("n = %s", got)
	}
}

func TestWaitForAdvancesTime(t *testing.T) {
	b := spec.NewBehavior("B")
	b.Body = []spec.Stmt{spec.WaitFor(10), spec.WaitFor(32)}
	res := mustRun(t, oneModuleSystem(b), Config{})
	if res.Clocks != 42 {
		t.Fatalf("clocks = %d, want 42", res.Clocks)
	}
	if res.ProcessEnd["B"] != 42 {
		t.Fatalf("process end = %d", res.ProcessEnd["B"])
	}
}

func TestSignalDeltaSemantics(t *testing.T) {
	// A signal assignment is not visible until the next delta: a
	// process that writes then immediately reads sees the old value.
	sys := spec.NewSystem("t")
	m := sys.AddModule("m")
	b := m.AddBehavior(spec.NewBehavior("B"))
	sig := sys.AddGlobal(spec.NewSignal("S", spec.Integer))
	seen := m.AddVariable(spec.NewVar("seen", spec.Integer))
	after := m.AddVariable(spec.NewVar("after", spec.Integer))
	b.Body = []spec.Stmt{
		spec.AssignSig(spec.Ref(sig), spec.Int(7)),
		spec.AssignVar(spec.Ref(seen), spec.Ref(sig)), // still 0
		spec.WaitFor(1),
		spec.AssignVar(spec.Ref(after), spec.Ref(sig)), // now 7
	}
	res := mustRun(t, sys, Config{})
	if !res.Final("m", "seen").Equal(IntVal{V: 0}) {
		t.Fatalf("seen = %s, want 0 (delta delay)", res.Final("m", "seen"))
	}
	if !res.Final("m", "after").Equal(IntVal{V: 7}) {
		t.Fatalf("after = %s, want 7", res.Final("m", "after"))
	}
}

func TestTwoProcessHandshake(t *testing.T) {
	// Producer raises REQ, consumer copies DATA and raises ACK, four
	// phase handshake; repeated 3 times.
	sys := spec.NewSystem("t")
	m := sys.AddModule("m")
	m2 := sys.AddModule("m2")
	prod := m.AddBehavior(spec.NewBehavior("prod"))
	cons := m2.AddBehavior(spec.NewBehavior("cons"))
	req := sys.AddGlobal(spec.NewSignal("REQ", spec.Bit))
	ack := sys.AddGlobal(spec.NewSignal("ACK", spec.Bit))
	data := sys.AddGlobal(spec.NewSignal("DATA", spec.BitVector(8)))
	sum := m2.AddVariable(spec.NewVar("sum", spec.Integer))
	done := m2.AddVariable(spec.NewVar("done", spec.Integer))

	i := prod.AddVar("i", spec.Integer)
	one := spec.VecString("1")
	zero := spec.VecString("0")
	prod.Body = []spec.Stmt{
		&spec.For{Var: i, From: spec.Int(1), To: spec.Int(3), Body: []spec.Stmt{
			spec.AssignSig(spec.Ref(data), spec.ToVec(spec.Ref(i), 8)),
			spec.AssignSig(spec.Ref(req), one),
			spec.WaitUntil(spec.Eq(spec.Ref(ack), one)),
			spec.AssignSig(spec.Ref(req), zero),
			spec.WaitUntil(spec.Eq(spec.Ref(ack), zero)),
		}},
	}
	j := cons.AddVar("j", spec.Integer)
	cons.Body = []spec.Stmt{
		&spec.For{Var: j, From: spec.Int(1), To: spec.Int(3), Body: []spec.Stmt{
			spec.WaitUntil(spec.Eq(spec.Ref(req), one)),
			spec.AssignVar(spec.Ref(sum), spec.Add(spec.Ref(sum), spec.ToInt(spec.Ref(data)))),
			spec.AssignSig(spec.Ref(ack), one),
			spec.WaitUntil(spec.Eq(spec.Ref(req), zero)),
			spec.AssignSig(spec.Ref(ack), zero),
		}},
		spec.AssignVar(spec.Ref(done), spec.Int(1)),
	}
	res := mustRun(t, sys, Config{})
	if !res.Final("m2", "sum").Equal(IntVal{V: 6}) {
		t.Fatalf("sum = %s, want 6", res.Final("m2", "sum"))
	}
	if res.SignalEvents["REQ"] != 6 { // 3 rises + 3 falls
		t.Fatalf("REQ events = %d, want 6", res.SignalEvents["REQ"])
	}
}

func TestWaitUntilImmediateCheck(t *testing.T) {
	// The condition already holds when the wait executes: the process
	// must pass straight through instead of deadlocking.
	sys := spec.NewSystem("t")
	m := sys.AddModule("m")
	b := m.AddBehavior(spec.NewBehavior("B"))
	sig := sys.AddGlobal(spec.NewSignal("S", spec.Bit))
	okv := m.AddVariable(spec.NewVar("ok", spec.Integer))
	b.Body = []spec.Stmt{
		spec.AssignSig(spec.Ref(sig), spec.VecString("1")),
		spec.WaitFor(1), // let it take effect
		spec.WaitUntil(spec.Eq(spec.Ref(sig), spec.VecString("1"))), // already true
		spec.AssignVar(spec.Ref(okv), spec.Int(1)),
	}
	res := mustRun(t, sys, Config{})
	if !res.Final("m", "ok").Equal(IntVal{V: 1}) {
		t.Fatal("immediate-true wait until blocked")
	}
}

func TestDeadlockDetected(t *testing.T) {
	sys := spec.NewSystem("t")
	m := sys.AddModule("m")
	b := m.AddBehavior(spec.NewBehavior("stuck"))
	sig := sys.AddGlobal(spec.NewSignal("NEVER", spec.Bit))
	b.Body = []spec.Stmt{
		spec.WaitUntil(spec.Eq(spec.Ref(sig), spec.VecString("1"))),
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
	if len(dl.Waiting) != 1 || !strings.Contains(dl.Waiting[0], "stuck") {
		t.Fatalf("deadlock report: %v", dl.Waiting)
	}
}

func TestRunawayProcessDetected(t *testing.T) {
	b := spec.NewBehavior("spin")
	b.Body = []spec.Stmt{&spec.Loop{Body: []spec.Stmt{&spec.Null{}}}}
	s, err := NewEngine(oneModuleSystem(b))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(Config{MaxStepsPerSlice: 1000}); err == nil || !strings.Contains(err.Error(), "without yielding") {
		t.Fatalf("err = %v, want runaway detection", err)
	}
}

func TestMaxClocksEnforced(t *testing.T) {
	b := spec.NewBehavior("slow")
	b.Body = []spec.Stmt{&spec.Loop{Body: []spec.Stmt{spec.WaitFor(1000)}}}
	s, err := NewEngine(oneModuleSystem(b))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(Config{MaxClocks: 5000}); err == nil || !strings.Contains(err.Error(), "MaxClocks") {
		t.Fatalf("err = %v, want MaxClocks error", err)
	}
}

func TestIndexOutOfRangeReported(t *testing.T) {
	sys := spec.NewSystem("t")
	m := sys.AddModule("m")
	b := m.AddBehavior(spec.NewBehavior("B"))
	mem := m.AddVariable(spec.NewVar("mem", spec.Array(4, spec.Integer)))
	b.Body = []spec.Stmt{
		spec.AssignVar(spec.At(spec.Ref(mem), spec.Int(9)), spec.Int(1)),
	}
	s, err := NewEngine(sys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(Config{}); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("err = %v, want index error", err)
	}
}

func TestProcedureCopyInOut(t *testing.T) {
	sys := spec.NewSystem("t")
	m := sys.AddModule("m")
	b := m.AddBehavior(spec.NewBehavior("B"))
	out := m.AddVariable(spec.NewVar("out", spec.Integer))
	a := spec.NewVar("a", spec.Integer)
	r := spec.NewVar("r", spec.Integer)
	double := &spec.Procedure{
		Name:   "double",
		Params: []spec.Param{{Var: a, Mode: spec.ModeIn}, {Var: r, Mode: spec.ModeOut}},
		Body: []spec.Stmt{
			spec.AssignVar(spec.Ref(r), spec.Mul(spec.Ref(a), spec.Int(2))),
		},
	}
	b.AddProc(double)
	res := b.AddVar("res", spec.Integer)
	b.Body = []spec.Stmt{
		spec.CallProc(double, spec.Int(21), spec.Ref(res)),
		spec.AssignVar(spec.Ref(out), spec.Ref(res)),
	}
	result := mustRun(t, sys, Config{})
	if !result.Final("m", "out").Equal(IntVal{V: 42}) {
		t.Fatalf("out = %s", result.Final("m", "out"))
	}
}

func TestProcedureInOutParam(t *testing.T) {
	sys := spec.NewSystem("t")
	m := sys.AddModule("m")
	b := m.AddBehavior(spec.NewBehavior("B"))
	out := m.AddVariable(spec.NewVar("out", spec.Integer))
	a := spec.NewVar("a", spec.Integer)
	inc := &spec.Procedure{
		Name:   "inc",
		Params: []spec.Param{{Var: a, Mode: spec.ModeInOut}},
		Body:   []spec.Stmt{spec.AssignVar(spec.Ref(a), spec.Add(spec.Ref(a), spec.Int(1)))},
	}
	b.AddProc(inc)
	v := b.AddVar("v", spec.Integer)
	b.Body = []spec.Stmt{
		spec.AssignVar(spec.Ref(v), spec.Int(10)),
		spec.CallProc(inc, spec.Ref(v)),
		spec.CallProc(inc, spec.Ref(v)),
		spec.AssignVar(spec.Ref(out), spec.Ref(v)),
	}
	result := mustRun(t, sys, Config{})
	if !result.Final("m", "out").Equal(IntVal{V: 12}) {
		t.Fatalf("out = %s, want 12", result.Final("m", "out"))
	}
}

func TestSliceAssignAndRead(t *testing.T) {
	sys := spec.NewSystem("t")
	m := sys.AddModule("m")
	b := m.AddBehavior(spec.NewBehavior("B"))
	v := m.AddVariable(spec.NewVar("v", spec.BitVector(16)))
	lo := m.AddVariable(spec.NewVar("lo", spec.BitVector(8)))
	b.Body = []spec.Stmt{
		spec.AssignVar(spec.SliceBits(spec.Ref(v), 15, 8), spec.VecString("10100101")),
		spec.AssignVar(spec.SliceBits(spec.Ref(v), 7, 0), spec.VecString("00001111")),
		spec.AssignVar(spec.Ref(lo), spec.SliceBits(spec.Ref(v), 7, 0)),
	}
	res := mustRun(t, sys, Config{})
	if got := res.Final("m", "v").(VecVal).V.String(); got != "1010010100001111" {
		t.Fatalf("v = %s", got)
	}
	if got := res.Final("m", "lo").(VecVal).V.String(); got != "00001111" {
		t.Fatalf("lo = %s", got)
	}
}

func TestRecordSignalFieldUpdates(t *testing.T) {
	// Two field updates in the same delta must both land (applied
	// against the pending value).
	rec := spec.RecordType{Name: "R", Fields: []spec.Field{
		{Name: "A", Type: spec.Bit}, {Name: "D", Type: spec.BitVector(8)},
	}}
	sys := spec.NewSystem("t")
	m := sys.AddModule("m")
	b := m.AddBehavior(spec.NewBehavior("B"))
	sig := sys.AddGlobal(spec.NewSignal("R", rec))
	gotA := m.AddVariable(spec.NewVar("gotA", spec.BitVector(1)))
	gotD := m.AddVariable(spec.NewVar("gotD", spec.BitVector(8)))
	b.Body = []spec.Stmt{
		spec.AssignSig(spec.FieldOf(spec.Ref(sig), "A"), spec.VecString("1")),
		spec.AssignSig(spec.FieldOf(spec.Ref(sig), "D"), spec.VecString("11000011")),
		spec.WaitFor(1),
		spec.AssignVar(spec.Ref(gotA), spec.FieldOf(spec.Ref(sig), "A")),
		spec.AssignVar(spec.Ref(gotD), spec.FieldOf(spec.Ref(sig), "D")),
	}
	res := mustRun(t, sys, Config{})
	if got := res.Final("m", "gotA").(VecVal).V.String(); got != "1" {
		t.Fatalf("A = %s", got)
	}
	if got := res.Final("m", "gotD").(VecVal).V.String(); got != "11000011" {
		t.Fatalf("D = %s", got)
	}
}

func TestCostModelChargesComputation(t *testing.T) {
	sys := spec.NewSystem("t")
	m := sys.AddModule("m")
	b := m.AddBehavior(spec.NewBehavior("B"))
	out := m.AddVariable(spec.NewVar("out", spec.Integer))
	i := b.AddVar("i", spec.Integer)
	b.Body = []spec.Stmt{
		&spec.For{Var: i, From: spec.Int(1), To: spec.Int(10), Body: []spec.Stmt{
			spec.AssignVar(spec.Ref(out), spec.Add(spec.Ref(out), spec.Ref(i))),
		}},
	}
	model := estimate.DefaultModel()
	res := mustRun(t, sys, Config{Cost: &model})
	if !res.Final("m", "out").Equal(IntVal{V: 55}) {
		t.Fatalf("out = %s", res.Final("m", "out"))
	}
	// 10 iterations * (loop 1 + assign 1 + add 1) = 30 clocks.
	if res.Clocks != 30 {
		t.Fatalf("clocks = %d, want 30", res.Clocks)
	}
	// Estimator agreement on the same body:
	e := estimate.New(nil)
	if ct := e.CompTime(b); ct != res.Clocks {
		t.Fatalf("estimator CompTime = %d, simulator measured %d", ct, res.Clocks)
	}
}

func TestInitializers(t *testing.T) {
	sys := spec.NewSystem("t")
	m := sys.AddModule("m")
	b := m.AddBehavior(spec.NewBehavior("B"))
	v := spec.NewVar("v", spec.Integer)
	v.Init = spec.Int(99)
	m.AddVariable(v)
	arr := spec.NewVar("arr", spec.Array(3, spec.BitVector(4)))
	arr.InitArray = []bits.Vector{
		bits.MustParse("0001"), bits.MustParse("0010"), bits.MustParse("0100"),
	}
	m.AddVariable(arr)
	b.Body = []spec.Stmt{&spec.Null{}}
	res := mustRun(t, sys, Config{})
	if !res.Final("m", "v").Equal(IntVal{V: 99}) {
		t.Fatalf("v = %s", res.Final("m", "v"))
	}
	got := res.Final("m", "arr").(ArrayVal)
	if got.Elems[2].(VecVal).V.String() != "0100" {
		t.Fatalf("arr[2] = %s", got.Elems[2])
	}
}

func TestServerProcessDoesNotBlockTermination(t *testing.T) {
	sys := spec.NewSystem("t")
	m := sys.AddModule("m")
	fg := m.AddBehavior(spec.NewBehavior("fg"))
	srv := m.AddBehavior(spec.NewBehavior("srv"))
	srv.Server = true
	sig := sys.AddGlobal(spec.NewSignal("S", spec.Bit))
	srv.Body = []spec.Stmt{&spec.Loop{Body: []spec.Stmt{
		spec.WaitOn(sig),
	}}}
	fg.Body = []spec.Stmt{spec.WaitFor(5)}
	res := mustRun(t, sys, Config{})
	if res.Clocks != 5 {
		t.Fatalf("clocks = %d", res.Clocks)
	}
	if _, ok := res.ProcessEnd["srv"]; ok {
		t.Fatal("server listed in ProcessEnd")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	build := func() *spec.System {
		sys := spec.NewSystem("t")
		m := sys.AddModule("m")
		a := m.AddBehavior(spec.NewBehavior("A"))
		b := m.AddBehavior(spec.NewBehavior("B"))
		sh := m.AddVariable(spec.NewVar("sh", spec.Integer))
		for _, beh := range []*spec.Behavior{a, b} {
			i := beh.AddVar("i", spec.Integer)
			beh.Body = []spec.Stmt{
				&spec.For{Var: i, From: spec.Int(0), To: spec.Int(9), Body: []spec.Stmt{
					spec.AssignVar(spec.Ref(sh), spec.Add(spec.Mul(spec.Ref(sh), spec.Int(3)), spec.Int(1))),
					spec.WaitFor(1),
				}},
			}
		}
		return sys
	}
	r1 := mustRun(t, build(), Config{})
	r2 := mustRun(t, build(), Config{})
	if !r1.Final("m", "sh").Equal(r2.Final("m", "sh")) {
		t.Fatalf("nondeterministic: %s vs %s", r1.Final("m", "sh"), r2.Final("m", "sh"))
	}
	if r1.Deltas != r2.Deltas {
		t.Fatalf("delta counts differ: %d vs %d", r1.Deltas, r2.Deltas)
	}
}

func TestOnEventHook(t *testing.T) {
	sys := spec.NewSystem("t")
	m := sys.AddModule("m")
	b := m.AddBehavior(spec.NewBehavior("B"))
	sig := sys.AddGlobal(spec.NewSignal("S", spec.Bit))
	b.Body = []spec.Stmt{
		spec.AssignSig(spec.Ref(sig), spec.VecString("1")),
		spec.WaitFor(1),
		spec.AssignSig(spec.Ref(sig), spec.VecString("0")),
		spec.WaitFor(1),
	}
	var events int
	s, err := NewEngine(sys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(Config{OnEvent: func(now int64, v *spec.Variable, val Value) {
		events++
	}}); err != nil {
		t.Fatal(err)
	}
	if events != 2 {
		t.Fatalf("events = %d, want 2", events)
	}
}

func TestRedundantSignalAssignNoEvent(t *testing.T) {
	sys := spec.NewSystem("t")
	m := sys.AddModule("m")
	b := m.AddBehavior(spec.NewBehavior("B"))
	sig := sys.AddGlobal(spec.NewSignal("S", spec.Bit))
	b.Body = []spec.Stmt{
		spec.AssignSig(spec.Ref(sig), spec.VecString("0")), // already 0
		spec.WaitFor(1),
	}
	res := mustRun(t, sys, Config{})
	if res.SignalEvents["S"] != 0 {
		t.Fatalf("events = %d, want 0", res.SignalEvents["S"])
	}
}

func TestWaitUntilWithTimeoutFires(t *testing.T) {
	// "wait until cond for n": the condition never holds, the timeout
	// resumes the process.
	sys := spec.NewSystem("t")
	m := sys.AddModule("m")
	b := m.AddBehavior(spec.NewBehavior("B"))
	sig := sys.AddGlobal(spec.NewSignal("S", spec.Bit))
	hit := m.AddVariable(spec.NewVar("hit", spec.Integer))
	b.Body = []spec.Stmt{
		&spec.Wait{Until: spec.Eq(spec.Ref(sig), spec.VecString("1")), For: 25, HasFor: true},
		spec.AssignVar(spec.Ref(hit), spec.Int(1)),
	}
	res := mustRun(t, sys, Config{})
	if !res.Final("m", "hit").Equal(IntVal{V: 1}) {
		t.Fatal("timeout did not fire")
	}
	if res.Clocks != 25 {
		t.Fatalf("clocks = %d, want 25", res.Clocks)
	}
}

func TestWaitUntilWithTimeoutEventWins(t *testing.T) {
	// The event arrives before the timeout: resume early.
	sys := spec.NewSystem("t")
	m := sys.AddModule("m")
	b := m.AddBehavior(spec.NewBehavior("B"))
	src := m.AddBehavior(spec.NewBehavior("SRC"))
	sig := sys.AddGlobal(spec.NewSignal("S", spec.Bit))
	b.Body = []spec.Stmt{
		&spec.Wait{Until: spec.Eq(spec.Ref(sig), spec.VecString("1")), For: 1000, HasFor: true},
	}
	src.Body = []spec.Stmt{
		spec.WaitFor(7),
		spec.AssignSig(spec.Ref(sig), spec.VecString("1")),
	}
	res := mustRun(t, sys, Config{})
	if res.ProcessEnd["B"] != 7 {
		t.Fatalf("B ended at %d, want 7 (event before timeout)", res.ProcessEnd["B"])
	}
}

func TestWaitForeverDeadlocks(t *testing.T) {
	b := spec.NewBehavior("B")
	b.Body = []spec.Stmt{&spec.Wait{}}
	s, err := NewEngine(oneModuleSystem(b))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(Config{}); err == nil {
		t.Fatal("wait-forever foreground process did not deadlock")
	}
}

func TestNegativeWaitRejected(t *testing.T) {
	b := spec.NewBehavior("B")
	b.Body = []spec.Stmt{spec.WaitFor(-5)}
	s, err := NewEngine(oneModuleSystem(b))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(Config{}); err == nil {
		t.Fatal("negative wait accepted")
	}
}

func TestSameDeltaSignalWritesLastProcessWins(t *testing.T) {
	// Two processes write the same signal in the same delta; process
	// run order is creation order, so the later process's value lands.
	// (The flow guarantees single drivers; this pins the documented
	// resolution for when that is violated.)
	sys := spec.NewSystem("t")
	m := sys.AddModule("m")
	a := m.AddBehavior(spec.NewBehavior("A"))
	b := m.AddBehavior(spec.NewBehavior("B"))
	sig := sys.AddGlobal(spec.NewSignal("S", spec.Integer))
	got := m.AddVariable(spec.NewVar("got", spec.Integer))
	a.Body = []spec.Stmt{spec.AssignSig(spec.Ref(sig), spec.Int(1))}
	b.Body = []spec.Stmt{
		spec.AssignSig(spec.Ref(sig), spec.Int(2)),
		spec.WaitFor(1),
		spec.AssignVar(spec.Ref(got), spec.Ref(sig)),
	}
	res := mustRun(t, sys, Config{})
	if !res.Final("m", "got").Equal(IntVal{V: 2}) {
		t.Fatalf("got = %s, want 2 (last writer in id order)", res.Final("m", "got"))
	}
}

func TestSameDeltaDisjointRecordFieldsMerge(t *testing.T) {
	// Two processes updating different fields of one record signal in
	// the same delta must both land (updates chain on the pending
	// value).
	rec := spec.RecordType{Name: "R", Fields: []spec.Field{
		{Name: "A", Type: spec.Bit}, {Name: "B", Type: spec.Bit},
	}}
	sys := spec.NewSystem("t")
	m := sys.AddModule("m")
	pa := m.AddBehavior(spec.NewBehavior("PA"))
	pb := m.AddBehavior(spec.NewBehavior("PB"))
	sig := sys.AddGlobal(spec.NewSignal("R", rec))
	gotA := m.AddVariable(spec.NewVar("gotA", spec.BitVector(1)))
	gotB := m.AddVariable(spec.NewVar("gotB", spec.BitVector(1)))
	pa.Body = []spec.Stmt{
		spec.AssignSig(spec.FieldOf(spec.Ref(sig), "A"), spec.VecString("1")),
	}
	pb.Body = []spec.Stmt{
		spec.AssignSig(spec.FieldOf(spec.Ref(sig), "B"), spec.VecString("1")),
		spec.WaitFor(1),
		spec.AssignVar(spec.Ref(gotA), spec.FieldOf(spec.Ref(sig), "A")),
		spec.AssignVar(spec.Ref(gotB), spec.FieldOf(spec.Ref(sig), "B")),
	}
	res := mustRun(t, sys, Config{})
	if res.Final("m", "gotA").(VecVal).V.String() != "1" ||
		res.Final("m", "gotB").(VecVal).V.String() != "1" {
		t.Fatalf("field merge failed: A=%s B=%s", res.Final("m", "gotA"), res.Final("m", "gotB"))
	}
}

func TestVectorArithmeticOps(t *testing.T) {
	// Exercise the vector-operand binary ops end to end.
	sys := spec.NewSystem("t")
	m := sys.AddModule("m")
	b := m.AddBehavior(spec.NewBehavior("B"))
	a8 := func(name string) *spec.Variable { return m.AddVariable(spec.NewVar(name, spec.BitVector(8))) }
	x := a8("x")
	sum := a8("sum")
	diff := a8("diff")
	prod := a8("prod")
	quot := a8("quot")
	rem := a8("rem")
	shl := a8("shl")
	shr := a8("shr")
	cmp := m.AddVariable(spec.NewVar("cmp", spec.Integer))
	b.Body = []spec.Stmt{
		spec.AssignVar(spec.Ref(x), spec.VecString("00001100")), // 12
		spec.AssignVar(spec.Ref(sum), spec.Add(spec.Ref(x), spec.VecString("00000101"))),
		spec.AssignVar(spec.Ref(diff), spec.Sub(spec.Ref(x), spec.VecString("00000101"))),
		spec.AssignVar(spec.Ref(prod), spec.Mul(spec.Ref(x), spec.VecString("00000011"))),
		spec.AssignVar(spec.Ref(quot), spec.Bin(spec.OpDiv, spec.Ref(x), spec.VecString("00000101"))),
		spec.AssignVar(spec.Ref(rem), spec.Bin(spec.OpMod, spec.Ref(x), spec.VecString("00000101"))),
		spec.AssignVar(spec.Ref(shl), spec.Bin(spec.OpShl, spec.Ref(x), spec.Int(2))),
		spec.AssignVar(spec.Ref(shr), spec.Bin(spec.OpShr, spec.Ref(x), spec.Int(2))),
		&spec.If{
			Cond: spec.LogicalAnd(
				spec.Lt(spec.Ref(x), spec.VecString("00001101")),
				spec.LogicalAnd(
					spec.Le(spec.Ref(x), spec.Ref(x)),
					spec.LogicalAnd(
						spec.Gt(spec.Ref(x), spec.VecString("00000001")),
						spec.Ge(spec.Ref(x), spec.Ref(x))))),
			Then: []spec.Stmt{spec.AssignVar(spec.Ref(cmp), spec.Int(1))},
		},
	}
	res := mustRun(t, sys, Config{})
	want := map[string]uint64{
		"sum": 17, "diff": 7, "prod": 36, "quot": 2, "rem": 2, "shl": 48, "shr": 3,
	}
	for name, w := range want {
		got := res.Final("m", name).(VecVal).V.Uint64()
		if got != w {
			t.Errorf("%s = %d, want %d", name, got, w)
		}
	}
	if !res.Final("m", "cmp").Equal(IntVal{V: 1}) {
		t.Error("vector comparisons failed")
	}
}

func TestVectorDivisionByZeroReported(t *testing.T) {
	sys := spec.NewSystem("t")
	m := sys.AddModule("m")
	b := m.AddBehavior(spec.NewBehavior("B"))
	x := m.AddVariable(spec.NewVar("x", spec.BitVector(8)))
	b.Body = []spec.Stmt{
		spec.AssignVar(spec.Ref(x), spec.Bin(spec.OpDiv, spec.Ref(x), spec.VecString("00000000"))),
	}
	s, err := NewEngine(sys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(Config{}); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("err = %v", err)
	}
}

func TestConcatAndXorInSim(t *testing.T) {
	sys := spec.NewSystem("t")
	m := sys.AddModule("m")
	b := m.AddBehavior(spec.NewBehavior("B"))
	wide := m.AddVariable(spec.NewVar("wide", spec.BitVector(8)))
	xo := m.AddVariable(spec.NewVar("xo", spec.BitVector(4)))
	b.Body = []spec.Stmt{
		spec.AssignVar(spec.Ref(wide), spec.Bin(spec.OpConcat, spec.VecString("1100"), spec.VecString("0011"))),
		spec.AssignVar(spec.Ref(xo), spec.Bin(spec.OpXor, spec.VecString("1100"), spec.VecString("1010"))),
	}
	res := mustRun(t, sys, Config{})
	if got := res.Final("m", "wide").(VecVal).V.String(); got != "11000011" {
		t.Errorf("concat = %s", got)
	}
	if got := res.Final("m", "xo").(VecVal).V.String(); got != "0110" {
		t.Errorf("xor = %s", got)
	}
}
