package sim

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/estimate"
	"repro/internal/protogen"
	"repro/internal/spec"
)

// batchTrace captures everything a run exposes, rendered to strings so
// a run compares directly against a golden. Steps is deliberately
// absent: the Engine counts compiled instructions, the classic kernel
// that recorded the goldens counted source statements.
type batchTrace struct {
	events     []string
	clocks     int64
	deltas     int64
	finals     map[string]string
	sigEvents  map[string]int64
	processEnd map[string]int64
	err        string
}

func traceEngine(e *Engine, cfg Config) batchTrace {
	var tr batchTrace
	cfg.OnEvent = func(now int64, sig *spec.Variable, val Value) {
		tr.events = append(tr.events, fmt.Sprintf("t=%d %s=%s", now, sig.Name, fullString(val)))
	}
	res, err := e.Run(cfg)
	tr.fill(res, err)
	return tr
}

func (tr *batchTrace) fill(res *Result, err error) {
	if err != nil {
		tr.err = err.Error()
		return
	}
	tr.clocks = res.Clocks
	tr.deltas = res.Deltas
	tr.finals = make(map[string]string, len(res.Finals))
	for k, v := range res.Finals {
		tr.finals[k] = fullString(v)
	}
	tr.sigEvents = res.SignalEvents
	tr.processEnd = res.ProcessEnd
}

// fullString renders a value completely: unlike ArrayVal.String it
// never elides the elements past index 8.
func fullString(v Value) string {
	switch v := v.(type) {
	case ArrayVal:
		parts := make([]string, len(v.Elems))
		for i, e := range v.Elems {
			parts[i] = fullString(e)
		}
		return fmt.Sprintf("%d:(%s)", v.Lo, strings.Join(parts, ", "))
	case RecordVal:
		parts := make([]string, len(v.Fields))
		for i, f := range v.Fields {
			parts[i] = v.Type.Fields[i].Name + ": " + fullString(f)
		}
		return "{" + strings.Join(parts, ", ") + "}"
	}
	return v.String()
}

// render is the golden text of a trace: one line per signal event, then
// either the error or the result, maps in key order.
func (tr batchTrace) render() string {
	var b strings.Builder
	for _, e := range tr.events {
		fmt.Fprintf(&b, "event %s\n", e)
	}
	if tr.err != "" {
		fmt.Fprintf(&b, "error %s\n", tr.err)
		return b.String()
	}
	fmt.Fprintf(&b, "clocks %d\ndeltas %d\n", tr.clocks, tr.deltas)
	for _, k := range sortedKeys(tr.finals) {
		fmt.Fprintf(&b, "final %s %s\n", k, tr.finals[k])
	}
	for _, k := range sortedKeys(tr.sigEvents) {
		fmt.Fprintf(&b, "signal-events %s %d\n", k, tr.sigEvents[k])
	}
	for _, k := range sortedKeys(tr.processEnd) {
		fmt.Fprintf(&b, "process-end %s %d\n", k, tr.processEnd[k])
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// goldenCase is one run whose classic-kernel trace is frozen under
// testdata/classic/<name>.trace. The goldens were recorded with the
// goroutine-per-process kernel this package used to carry, before it
// was deleted; nothing can regenerate them, so they are never
// rewritten, only compared against.
type goldenCase struct {
	name  string
	sys   *spec.System
	mkCfg func() Config // fresh per run: hooks may be stateful
}

// withCost returns c and its variant under the default cost model.
func withCost(c goldenCase) []goldenCase {
	model := estimate.DefaultModel()
	plain := c.mkCfg
	costed := c
	costed.name += ".cost"
	costed.mkCfg = func() Config {
		cfg := plain()
		cfg.Cost = &model
		return cfg
	}
	return []goldenCase{c, costed}
}

// checkGolden runs the case on a fresh Engine and compares the trace
// with its golden line by line. It then runs the same Engine again to
// pin the pooled runner's reset invariant.
func checkGolden(t *testing.T, c goldenCase) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", "classic", c.name+".trace"))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(c.sys)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	for run := 1; run <= 2; run++ {
		if d := diffLines(string(want), traceEngine(e, c.mkCfg()).render()); d != "" {
			t.Fatalf("%s: run %d diverges from the classic golden: %s", c.name, run, d)
		}
	}
}

// diffLines reports the first line where got differs from want.
func diffLines(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d: golden %q, engine %q", i+1, w[i], g[i])
		}
	}
	if len(w) != len(g) {
		return fmt.Sprintf("golden has %d lines, engine %d", len(w), len(g))
	}
	return ""
}

// goldenCases lists every frozen run: each batch scenario with and
// without a cost model, the mutate+schedule PQ case, and the error
// cases.
func goldenCases() []goldenCase {
	var cases []goldenCase
	scenarios := batchScenarios()
	for _, name := range sortedKeys(scenarios) {
		cases = append(cases, withCost(goldenCase{name, scenarios[name], func() Config { return Config{} }})...)
	}
	cases = append(cases, withCost(mutateScheduleCase())...)
	for _, c := range errorCases() {
		cases = append(cases, withCost(c)...)
	}
	return cases
}

// batchScenarios exercises every construct the compiler lowers.
func batchScenarios() map[string]*spec.System {
	scenarios := make(map[string]*spec.System)

	{
		// Straight-line arithmetic into a shared variable.
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
		scenarios["straight-line"] = sys
	}
	{
		// For over an array, loop variable clobbered by the body (the
		// iteration count must not change), nested if/elif/else, while
		// with exit.
		sys := spec.NewSystem("t")
		m := sys.AddModule("m")
		b := m.AddBehavior(spec.NewBehavior("B"))
		mem := m.AddVariable(spec.NewVar("mem", spec.Array(8, spec.Integer)))
		tag := m.AddVariable(spec.NewVar("tag", spec.Integer))
		n := m.AddVariable(spec.NewVar("n", spec.Integer))
		i := b.AddVar("i", spec.Integer)
		b.Body = []spec.Stmt{
			&spec.For{Var: i, From: spec.Int(0), To: spec.Int(7), Body: []spec.Stmt{
				spec.AssignVar(spec.At(spec.Ref(mem), spec.Ref(i)), spec.Mul(spec.Ref(i), spec.Ref(i))),
				spec.AssignVar(spec.Ref(i), spec.Int(99)), // clobber
			}},
			&spec.If{
				Cond: spec.Eq(spec.Ref(i), spec.Int(99)),
				Then: []spec.Stmt{spec.AssignVar(spec.Ref(tag), spec.Int(1))},
				Elifs: []spec.ElseIf{{
					Cond: spec.Eq(spec.Ref(i), spec.Int(7)),
					Body: []spec.Stmt{spec.AssignVar(spec.Ref(tag), spec.Int(2))},
				}},
				Else: []spec.Stmt{spec.AssignVar(spec.Ref(tag), spec.Int(3))},
			},
			&spec.While{Cond: spec.Le(spec.Ref(n), spec.Int(100)), Body: []spec.Stmt{
				spec.AssignVar(spec.Ref(n), spec.Add(spec.Ref(n), spec.Int(7))),
				&spec.If{Cond: spec.Gt(spec.Ref(n), spec.Int(50)), Then: []spec.Stmt{&spec.Exit{}}},
			}},
		}
		scenarios["loops-and-branches"] = sys
	}
	{
		// Procedures: in/out/inout copy-in/out, locals, exit directly in a
		// procedure body (the interpreter treats it as return: copy-out
		// still runs), return from inside a loop in a procedure.
		sys := spec.NewSystem("t")
		m := sys.AddModule("m")
		b := m.AddBehavior(spec.NewBehavior("B"))
		r1 := m.AddVariable(spec.NewVar("r1", spec.Integer))
		r2 := m.AddVariable(spec.NewVar("r2", spec.Integer))

		pa := spec.NewVar("a", spec.Integer)
		pb := spec.NewVar("bb", spec.Integer)
		tmp := spec.NewVar("tmp", spec.Integer)
		proc := &spec.Procedure{
			Name:   "addmul",
			Params: []spec.Param{{Var: pa, Mode: spec.ModeIn}, {Var: pb, Mode: spec.ModeInOut}},
			Locals: []*spec.Variable{tmp},
			Body: []spec.Stmt{
				spec.AssignVar(spec.Ref(tmp), spec.Mul(spec.Ref(pa), spec.Int(2))),
				&spec.If{Cond: spec.Gt(spec.Ref(pa), spec.Int(10)), Then: []spec.Stmt{
					spec.AssignVar(spec.Ref(pb), spec.Int(-1)),
					&spec.Exit{}, // unwinds the call, copy-out still runs
				}},
				spec.AssignVar(spec.Ref(pb), spec.Add(spec.Ref(pb), spec.Ref(tmp))),
			},
		}
		qx := spec.NewVar("x", spec.Integer)
		k := spec.NewVar("k", spec.Integer)
		proc2 := &spec.Procedure{
			Name:   "findfirst",
			Params: []spec.Param{{Var: qx, Mode: spec.ModeOut}},
			Body: []spec.Stmt{
				&spec.For{Var: k, From: spec.Int(1), To: spec.Int(100), Body: []spec.Stmt{
					&spec.If{Cond: spec.Ge(spec.Mul(spec.Ref(k), spec.Ref(k)), spec.Int(30)), Then: []spec.Stmt{
						spec.AssignVar(spec.Ref(qx), spec.Ref(k)),
						&spec.Return{},
					}},
				}},
			},
		}
		b.Procedures = []*spec.Procedure{proc, proc2}
		b.Body = []spec.Stmt{
			spec.AssignVar(spec.Ref(r1), spec.Int(3)),
			&spec.Call{Proc: proc, Args: []spec.Expr{spec.Int(4), spec.Ref(r1)}},  // r1 = 3+8
			&spec.Call{Proc: proc, Args: []spec.Expr{spec.Int(11), spec.Ref(r1)}}, // exit path: r1 = -1
			&spec.Call{Proc: proc2, Args: []spec.Expr{spec.Ref(r2)}},              // r2 = 6
		}
		scenarios["procedures"] = sys
	}
	{
		// Signal delta semantics plus timed waits.
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
			spec.WaitFor(41),
		}
		scenarios["delta-semantics"] = sys
	}
	{
		// Two-process four-phase handshake: wait until, wake ordering,
		// record of events.
		sys := spec.NewSystem("t")
		m := sys.AddModule("m")
		m2 := sys.AddModule("m2")
		prod := m.AddBehavior(spec.NewBehavior("prod"))
		cons := m2.AddBehavior(spec.NewBehavior("cons"))
		req := sys.AddGlobal(spec.NewSignal("REQ", spec.Bit))
		ack := sys.AddGlobal(spec.NewSignal("ACK", spec.Bit))
		data := sys.AddGlobal(spec.NewSignal("DATA", spec.BitVector(8)))
		sum := m2.AddVariable(spec.NewVar("sum", spec.Integer))
		one, zero := spec.VecString("1"), spec.VecString("0")
		i := prod.AddVar("i", spec.Integer)
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
		}
		scenarios["handshake"] = sys
	}
	{
		// Bounded waits: both the expired and the satisfied TimedOut path.
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
			spec.WaitUntilFor(spec.Eq(spec.Ref(sig), spec.VecString("1")), 10, tmo),
			record(first),
			spec.WaitUntilFor(spec.Eq(spec.Ref(sig), spec.VecString("1")), 1000, tmo),
			record(second),
		}
		src.Body = []spec.Stmt{
			spec.WaitFor(20),
			spec.AssignSig(spec.Ref(sig), spec.VecString("1")),
		}
		scenarios["timed-out-flag"] = sys
	}
	{
		// Immediate-check wait until (no suspend) and wait on.
		sys := spec.NewSystem("t")
		m := sys.AddModule("m")
		b := m.AddBehavior(spec.NewBehavior("B"))
		w := m.AddBehavior(spec.NewBehavior("WATCH"))
		sig := sys.AddGlobal(spec.NewSignal("S", spec.Bit))
		okv := m.AddVariable(spec.NewVar("ok", spec.Integer))
		wok := m.AddVariable(spec.NewVar("wok", spec.Integer))
		b.Body = []spec.Stmt{
			spec.AssignSig(spec.Ref(sig), spec.VecString("1")),
			spec.WaitFor(1),
			spec.WaitUntil(spec.Eq(spec.Ref(sig), spec.VecString("1"))), // already true
			spec.AssignVar(spec.Ref(okv), spec.Int(1)),
		}
		w.Body = []spec.Stmt{
			spec.WaitOn(sig),
			spec.AssignVar(spec.Ref(wok), spec.Int(1)),
		}
		scenarios["immediate-and-on"] = sys
	}
	{
		// Slices and record-signal field updates in one delta.
		sys := spec.NewSystem("t")
		m := sys.AddModule("m")
		b := m.AddBehavior(spec.NewBehavior("B"))
		rec := spec.RecordType{Name: "wires", Fields: []spec.Field{
			{Name: "A", Type: spec.Bit},
			{Name: "D", Type: spec.BitVector(8)},
		}}
		sig := sys.AddGlobal(spec.NewSignal("S", rec))
		got := m.AddVariable(spec.NewVar("got", spec.BitVector(8)))
		vec := m.AddVariable(spec.NewVar("vec", spec.BitVector(16)))
		b.Body = []spec.Stmt{
			spec.AssignSig(spec.FieldOf(spec.Ref(sig), "A"), spec.VecString("1")),
			spec.AssignSig(spec.FieldOf(spec.Ref(sig), "D"), spec.ToVec(spec.Int(0xAB), 8)),
			spec.WaitFor(1),
			spec.AssignVar(spec.Ref(got), spec.FieldOf(spec.Ref(sig), "D")),
			spec.AssignVar(spec.Ref(vec), spec.ToVec(spec.Int(0xF0F0), 16)),
			spec.AssignVar(spec.SliceBits(spec.Ref(vec), 7, 0), spec.ToVec(spec.Int(0x0F), 8)),
		}
		scenarios["records-and-slices"] = sys
	}
	{
		// Cost-accounting edges: computation lag realized before a
		// signal assignment, before event waits, folded into a pure
		// timed wait and at process end; a server's forever wait after
		// computation; copy-out into a signal (which realizes nothing);
		// a parameterless call; exit inside a call inside a for; loops
		// whose bodies open with another loop.
		sys := spec.NewSystem("t")
		m := sys.AddModule("m")
		a := m.AddBehavior(spec.NewBehavior("A"))
		c := m.AddBehavior(spec.NewBehavior("C"))
		srv := m.AddBehavior(spec.NewBehavior("SRV"))
		srv.Server = true
		sig := sys.AddGlobal(spec.NewSignal("S", spec.Integer))
		tsig := sys.AddGlobal(spec.NewSignal("T", spec.Bit))
		mv := func(name string) *spec.Variable { return m.AddVariable(spec.NewVar(name, spec.Integer)) }
		k, n, cnt, w, w2, q, q2, r, z, c1, c2 := mv("k"), mv("n"), mv("cnt"), mv("w"), mv("w2"), mv("q"), mv("q2"), mv("r"), mv("z"), mv("c1"), mv("c2")
		inc := func(v *spec.Variable) spec.Stmt {
			return spec.AssignVar(spec.Ref(v), spec.Add(spec.Ref(v), spec.Int(1)))
		}
		exitWhen := func(v *spec.Variable, n int64) spec.Stmt {
			return &spec.If{Cond: spec.Ge(spec.Ref(v), spec.Int(n)), Then: []spec.Stmt{&spec.Exit{}}}
		}
		bump := &spec.Procedure{Name: "bump", Body: []spec.Stmt{inc(n)}}
		po := spec.NewVar("o", spec.Integer)
		setout := &spec.Procedure{
			Name:   "setout",
			Params: []spec.Param{{Var: po, Mode: spec.ModeOut}},
			Body:   []spec.Stmt{spec.AssignVar(spec.Ref(po), spec.Int(7))},
		}
		px := spec.NewVar("x", spec.Integer)
		stop := &spec.Procedure{
			Name:   "stop",
			Params: []spec.Param{{Var: px, Mode: spec.ModeInOut}},
			Body:   []spec.Stmt{inc(px), &spec.Exit{}, spec.AssignVar(spec.Ref(px), spec.Int(100))},
		}
		a.Procedures = []*spec.Procedure{bump, setout, stop}
		j := a.AddVar("j", spec.Integer)
		a.Body = []spec.Stmt{
			spec.AssignVar(spec.Ref(k), spec.Mul(spec.Int(3), spec.Int(4))),
			&spec.Call{Proc: setout, Args: []spec.Expr{spec.Ref(sig)}},
			&spec.Call{Proc: bump},
			&spec.For{Var: j, From: spec.Int(1), To: spec.Int(3), Body: []spec.Stmt{
				&spec.Call{Proc: stop, Args: []spec.Expr{spec.Ref(cnt)}},
			}},
			&spec.Loop{Body: []spec.Stmt{
				&spec.While{Cond: spec.Lt(spec.Ref(w), spec.Int(3)), Body: []spec.Stmt{inc(w)}},
				inc(w2),
				exitWhen(w2, 2),
			}},
			&spec.Loop{Body: []spec.Stmt{
				&spec.Loop{Body: []spec.Stmt{inc(q), &spec.Exit{}}},
				inc(q2),
				exitWhen(q2, 2),
			}},
			spec.AssignSig(spec.Ref(tsig), spec.VecString("1")),
			spec.AssignVar(spec.Ref(r), spec.Int(1)),
			spec.WaitFor(5),
			inc(r),
		}
		c.Body = []spec.Stmt{
			spec.WaitOn(sig),
			spec.AssignVar(spec.Ref(c1), spec.Ref(sig)),
			spec.WaitUntil(spec.Eq(spec.Ref(tsig), spec.VecString("1"))),
			spec.AssignVar(spec.Ref(c2), spec.Add(spec.Ref(c1), spec.Int(1))),
		}
		srv.Body = []spec.Stmt{inc(z), &spec.Wait{}}
		scenarios["cost-edges"] = sys
	}
	{
		// PQ, the paper's Fig. 3 system (unrefined: timed stagger only).
		sys, _ := buildPQ()
		scenarios["pq-original"] = sys
	}
	for _, pc := range []struct {
		name string
		cfg  protogen.Config
	}{
		{"pq-full", protogen.Config{Protocol: spec.FullHandshake}},
		{"pq-half", protogen.Config{Protocol: spec.HalfHandshake}},
		{"pq-robust", protogen.Config{Protocol: spec.FullHandshake, Robust: true}},
		{"pq-robust-parity", protogen.Config{Protocol: spec.FullHandshake, Robust: true, Parity: true}},
		{"pq-arbitrated", protogen.Config{Protocol: spec.FullHandshake, Robust: true, Arbitrate: true}},
	} {
		sys, bus := buildPQ()
		if _, err := protogen.Generate(sys, bus, pc.cfg); err != nil {
			panic(err)
		}
		scenarios[pc.name] = sys
	}
	return scenarios
}

// mutateScheduleCase drives the hardened PQ system with a stateful
// Mutate hook (suppress the first change from clock 3 on, re-commit it
// 10 clocks later) plus a Schedule hook that reverses every delta's
// default order — the shape a fault campaign or a counterexample
// replay uses.
func mutateScheduleCase() goldenCase {
	sys, bus := buildPQ()
	if _, err := protogen.Generate(sys, bus, protogen.Config{Protocol: spec.FullHandshake, Robust: true}); err != nil {
		panic(err)
	}
	return goldenCase{"pq-robust-mutate-schedule", sys, func() Config {
		fired := false
		return Config{
			Mutate: func(now int64, s *spec.Variable, old, next Value) Mutation {
				if fired || now < 3 {
					return Mutation{}
				}
				fired = true
				return Mutation{Now: old.Copy(), Later: next.Copy(), Delay: 10}
			},
			Schedule: func(now int64, runnable []string) []string {
				out := make([]string, len(runnable))
				for i, n := range runnable {
					out[len(runnable)-1-i] = n
				}
				return out
			},
		}
	}}
}

// errorCases are runs that fail: a deadlock (wait descriptions and bus
// state in the message), the MaxClocks budget, and a runtime fault.
func errorCases() []goldenCase {
	var cases []goldenCase
	{
		sys := spec.NewSystem("t")
		m := sys.AddModule("m")
		b := m.AddBehavior(spec.NewBehavior("stuck"))
		srv := m.AddBehavior(spec.NewBehavior("srv"))
		srv.Server = true
		rec := spec.RecordType{Name: "wires", Fields: []spec.Field{
			{Name: "A", Type: spec.Bit},
			{Name: "DATA", Type: spec.BitVector(8)},
		}}
		sig := sys.AddGlobal(spec.NewSignal("BUSY", rec))
		b.Body = []spec.Stmt{
			spec.AssignSig(spec.FieldOf(spec.Ref(sig), "A"), spec.VecString("1")),
			spec.WaitUntil(spec.Eq(spec.FieldOf(spec.Ref(sig), "DATA"), spec.ToVec(spec.Int(9), 8))),
		}
		srv.Body = []spec.Stmt{&spec.Wait{}} // wait forever
		cases = append(cases, goldenCase{"error-deadlock", sys, func() Config { return Config{} }})
	}
	{
		b := spec.NewBehavior("slow")
		b.Body = []spec.Stmt{&spec.Loop{Body: []spec.Stmt{spec.WaitFor(1000)}}}
		cases = append(cases, goldenCase{"error-max-clocks", oneModuleSystem(b), func() Config { return Config{MaxClocks: 5000} }})
	}
	{
		sys := spec.NewSystem("t")
		m := sys.AddModule("m")
		b := m.AddBehavior(spec.NewBehavior("oob"))
		mem := m.AddVariable(spec.NewVar("mem", spec.Array(4, spec.Integer)))
		b.Body = []spec.Stmt{
			spec.AssignVar(spec.At(spec.Ref(mem), spec.Int(9)), spec.Int(1)),
		}
		cases = append(cases, goldenCase{"error-runtime-fault", sys, func() Config { return Config{} }})
	}
	return cases
}

// TestEngineMatchesClassic: on every scenario the Engine's run is
// observably identical to the classic kernel's frozen trace, including
// on a reused pooled runner.
func TestEngineMatchesClassic(t *testing.T) {
	scenarios := batchScenarios()
	for _, name := range sortedKeys(scenarios) {
		t.Run(name, func(t *testing.T) {
			checkGolden(t, goldenCase{name, scenarios[name], func() Config { return Config{} }})
		})
	}
}

// TestEngineCostMatchesClassic: under the default cost model the
// Engine's statement-level lag accounting reproduces the classic
// interpreter's clocks, event times and deltas on every scenario.
func TestEngineCostMatchesClassic(t *testing.T) {
	scenarios := batchScenarios()
	for _, name := range sortedKeys(scenarios) {
		t.Run(name, func(t *testing.T) {
			checkGolden(t, withCost(goldenCase{name, scenarios[name], func() Config { return Config{} }})[1])
		})
	}
}

// TestEngineMatchesClassicUnderMutation pins the hook sequences: the
// mutate+schedule PQ run, with and without a cost model.
func TestEngineMatchesClassicUnderMutation(t *testing.T) {
	for _, c := range withCost(mutateScheduleCase()) {
		checkGolden(t, c)
	}
}

// TestEngineMatchesClassicErrors: failure paths agree with the classic
// kernel to the exact error string.
func TestEngineMatchesClassicErrors(t *testing.T) {
	for _, c := range errorCases() {
		t.Run(strings.TrimPrefix(c.name, "error-"), func(t *testing.T) {
			for _, v := range withCost(c) {
				checkGolden(t, v)
			}
		})
	}
	t.Run("runaway", func(t *testing.T) {
		// The guard counts instructions, so only the error kind is
		// pinned, not the count in the message.
		b := spec.NewBehavior("spin")
		b.Body = []spec.Stmt{&spec.Loop{Body: []spec.Stmt{&spec.Null{}}}}
		e, err := NewEngine(oneModuleSystem(b))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(Config{MaxStepsPerSlice: 1000}); err == nil || !strings.Contains(err.Error(), "1001 instructions without yielding") {
			t.Fatalf("err = %v, want runaway detection after 1000 instructions", err)
		}
	})
}

// TestClassicGoldensAllUsed: every frozen trace belongs to a case, so
// none is silently skipped.
func TestClassicGoldensAllUsed(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "classic", "*.trace"))
	if err != nil {
		t.Fatal(err)
	}
	known := make(map[string]bool)
	for _, c := range goldenCases() {
		known[c.name+".trace"] = true
	}
	for _, f := range files {
		if !known[filepath.Base(f)] {
			t.Errorf("golden %s has no case", f)
		}
	}
	if len(files) != len(known) {
		t.Errorf("%d goldens for %d cases", len(files), len(known))
	}
}

// TestEngineConcurrentRuns: one Engine, many goroutines — every run
// must be independent and identical (the campaign scheduler relies on
// this), with and without a cost model.
func TestEngineConcurrentRuns(t *testing.T) {
	sys, bus := buildPQ()
	if _, err := protogen.Generate(sys, bus, protogen.Config{Protocol: spec.FullHandshake}); err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(sys)
	if err != nil {
		t.Fatal(err)
	}
	model := estimate.DefaultModel()
	cfgs := [2]Config{{}, {Cost: &model}}
	want := [2]string{traceEngine(e, cfgs[0]).render(), traceEngine(e, cfgs[1]).render()}
	var wg sync.WaitGroup
	diffs := make([]string, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 8; r++ {
				if d := diffLines(want[g%2], traceEngine(e, cfgs[g%2]).render()); d != "" {
					diffs[g] = d
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, d := range diffs {
		if d != "" {
			t.Fatalf("goroutine %d diverged: %s", g, d)
		}
	}
}

// TestEngineAllocsPerRun pins the pooled kernel's per-run allocation
// count on the hardened PQ protocol, with and without parity. The pool
// exists so campaign runs allocate only what evaluation itself
// allocates (values, Result maps): robust PQ makes about 23 allocs/run
// (small-vector and box interning, owned in-place containers, compiled
// conditions). Parity adds a per-word parity tree of concatenations,
// slices and xors; with every vector operation returning interned
// results it makes as many, not ~450 allocs/run. The bound
// has headroom for runtime jitter but catches a regression back to
// per-run rebuilds, goroutine setup or allocating vector operators.
func TestEngineAllocsPerRun(t *testing.T) {
	for _, parity := range []bool{false, true} {
		name := "robust"
		if parity {
			name = "robust+parity"
		}
		t.Run(name, func(t *testing.T) {
			sys, bus := buildPQ()
			cfg := protogen.Config{Protocol: spec.FullHandshake, Robust: true, Parity: parity}
			if _, err := protogen.Generate(sys, bus, cfg); err != nil {
				t.Fatal(err)
			}
			e, err := NewEngine(sys)
			if err != nil {
				t.Fatal(err)
			}
			// Warm the pool so the first runner's construction is not counted.
			if _, err := e.Run(Config{}); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(50, func() {
				if _, err := e.Run(Config{}); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%.0f allocs/run", allocs)
			if allocs > 80 {
				t.Errorf("pooled kernel allocates %.0f allocs/run, want <= 80", allocs)
			}
		})
	}
}

// TestEngineRejectsRecursion: calls are inlined, so a recursive
// procedure is a construction error that names the procedure. The
// system itself validates: recursion is refused only by the compiler,
// which the model checker shares.
func TestEngineRejectsRecursion(t *testing.T) {
	sys := spec.NewSystem("t")
	m := sys.AddModule("m")
	b := m.AddBehavior(spec.NewBehavior("B"))
	pn := spec.NewVar("n", spec.Integer)
	proc := &spec.Procedure{Name: "rec", Params: []spec.Param{{Var: pn, Mode: spec.ModeIn}}}
	proc.Body = []spec.Stmt{
		&spec.Call{Proc: proc, Args: []spec.Expr{spec.Ref(pn)}},
	}
	b.Procedures = []*spec.Procedure{proc}
	b.Body = []spec.Stmt{&spec.Call{Proc: proc, Args: []spec.Expr{spec.Int(1)}}}
	if errs := sys.Validate(); len(errs) > 0 {
		t.Fatalf("Validate = %v, want a valid system", errs)
	}
	if _, err := NewEngine(sys); err == nil || !strings.Contains(err.Error(), "procedure rec recurses") {
		t.Fatalf("NewEngine = %v, want recursion rejection naming rec", err)
	}
}

// TestEngineRejectsUncompilableExpr: every expression is compiled at
// construction, so one the compiler cannot lower is a construction
// error that names it. A unary plus validates, and only the spec API
// can build one: the .sys parser emits no unary operator but not and
// minus.
func TestEngineRejectsUncompilableExpr(t *testing.T) {
	sys := spec.NewSystem("t")
	m := sys.AddModule("m")
	b := m.AddBehavior(spec.NewBehavior("B"))
	out := m.AddVariable(spec.NewVar("out", spec.Integer))
	b.Body = []spec.Stmt{
		spec.AssignVar(spec.Ref(out), &spec.Unary{Op: spec.OpAdd, X: spec.Int(1)}),
	}
	if errs := sys.Validate(); len(errs) > 0 {
		t.Fatalf("Validate = %v, want a valid system", errs)
	}
	if _, err := NewEngine(sys); err == nil || !strings.Contains(err.Error(), "(+ 1)") {
		t.Fatalf("NewEngine = %v, want an error naming (+ 1)", err)
	}
}
