package sim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/estimate"
	"repro/internal/spec"
)

// lvalueSystem is one behavior B over a module array mem (4 integers,
// never read whole, so element stores into it may go in place), a
// module vector x, a global vector signal s and a declared integer h.
func lvalueSystem(body func(mem, x, s, h *spec.Variable) []spec.Stmt) *spec.System {
	sys := spec.NewSystem("t")
	m := sys.AddModule("m")
	b := m.AddBehavior(spec.NewBehavior("B"))
	mem := m.AddVariable(spec.NewVar("mem", spec.Array(4, spec.Integer)))
	x := m.AddVariable(spec.NewVar("x", spec.BitVector(8)))
	s := sys.AddGlobal(spec.NewSignal("s", spec.BitVector(8)))
	h := b.AddVar("h", spec.Integer)
	b.Body = body(mem, x, s, h)
	return sys
}

// frameFailure steps a straight-line program the way the model checker
// stores: RHS, then Apply onto the destination's current value. It
// returns the first failure's message, or "" when every store succeeds.
func frameFailure(t *testing.T, e *Engine, prog *Program) (msg string) {
	type failed struct{ msg string }
	fr := NewFrame(prog, func(format string, args ...any) {
		panic(failed{fmt.Sprintf(format, args...)})
	})
	fr.Locals = append([]Value(nil), prog.localInit...)
	fr.Globals = append([]Value(nil), e.globInit...)
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(failed)
			if !ok {
				panic(r)
			}
			msg = f.msg
		}
	}()
	code := prog.Code()
	for i := range code {
		in := &code[i]
		switch in.Op() {
		case OpAssign:
			val := fr.RHS(in)
			slots := fr.Globals
			sp, idx := in.Dest()
			if sp == LocalSlot {
				slots = fr.Locals
			}
			slots[idx] = fr.Apply(in, slots[idx], val)
		case OpEnd:
		default:
			t.Fatalf("instruction %d: op %d in a straight-line program", i, in.Op())
		}
	}
	return ""
}

// TestLValueFailures: a store that fails inside its lvalue — evaluating
// an index or slice bound, or bounds-checking it — fails with the same
// message on every store path: the Engine's signal store and its
// copy-on-write variable store, its in-place element store into an
// owned array (the second store into mem), each with and without a cost
// model, and the checker's persistent rebuild through Frame.Apply.
func TestLValueFailures(t *testing.T) {
	k := spec.NewVar("k", spec.Integer) // never written: a scratch local
	cases := []struct {
		name    string
		body    func(mem, x, s, h *spec.Variable) []spec.Stmt
		want    string
		inPlace bool // the failing store is the Engine's in-place element store
	}{
		{"scratch-index", func(mem, x, s, h *spec.Variable) []spec.Stmt {
			return []spec.Stmt{spec.AssignVar(spec.At(spec.Ref(mem), spec.Ref(k)), spec.Int(1))}
		}, "variable k not in scope", false},
		{"div-index", func(mem, x, s, h *spec.Variable) []spec.Stmt {
			idx := spec.Bin(spec.OpDiv, spec.Int(1), spec.Int(0))
			return []spec.Stmt{spec.AssignVar(spec.At(spec.Ref(mem), idx), spec.Int(1))}
		}, "division by zero", false},
		{"mod-index-in-place", func(mem, x, s, h *spec.Variable) []spec.Stmt {
			idx := spec.Bin(spec.OpMod, spec.Int(1), spec.Int(0))
			return []spec.Stmt{
				spec.AssignVar(spec.At(spec.Ref(mem), spec.Int(0)), spec.Int(1)),
				spec.AssignVar(spec.At(spec.Ref(mem), idx), spec.Int(2)),
			}
		}, "mod by zero", true},
		{"negative-index-in-place", func(mem, x, s, h *spec.Variable) []spec.Stmt {
			return []spec.Stmt{
				spec.AssignVar(spec.At(spec.Ref(mem), spec.Int(0)), spec.Int(1)),
				spec.AssignVar(spec.At(spec.Ref(mem), spec.Int(-1)), spec.Int(2)),
			}
		}, "store index -1 out of range (len 4)", true},
		{"static-slice", func(mem, x, s, h *spec.Variable) []spec.Stmt {
			return []spec.Stmt{spec.AssignVar(spec.SliceBits(spec.Ref(x), 9, 2), spec.Int(0))}
		}, "slice store (9 downto 2) out of range (width 8)", false},
		{"dynamic-slice", func(mem, x, s, h *spec.Variable) []spec.Stmt {
			lhs := &spec.SliceExpr{X: spec.Ref(x), Hi: spec.Ref(h), Lo: spec.Int(2), Width: 8}
			return []spec.Stmt{
				spec.AssignVar(spec.Ref(h), spec.Int(9)),
				spec.AssignVar(lhs, spec.Int(0)),
			}
		}, "slice store (9 downto 2) out of range (width 8)", false},
		{"signal-slice", func(mem, x, s, h *spec.Variable) []spec.Stmt {
			return []spec.Stmt{spec.AssignSig(spec.SliceBits(spec.Ref(s), 9, 2), spec.Int(0))}
		}, "slice store (9 downto 2) out of range (width 8)", false},
	}
	model := estimate.DefaultModel()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e, err := NewEngine(lvalueSystem(c.body))
			if err != nil {
				t.Fatal(err)
			}
			// The first store into mem copies the container and owns it,
			// so an eligible second store mutates it in place.
			code := e.Programs()[0].Code()
			if c.inPlace && !code[len(code)-2].aOwn {
				t.Fatal("the failing store is not eligible to store in place")
			}
			for _, cfg := range []Config{{}, {Cost: &model}} {
				_, err := e.Run(cfg)
				if err == nil || !strings.HasPrefix(err.Error(), "sim: process B failed at clock ") ||
					!strings.HasSuffix(err.Error(), ": process B: "+c.want) {
					t.Errorf("Run (cost model %t) = %v, want process B failing %q", cfg.Cost != nil, err, c.want)
				}
			}
			if got := frameFailure(t, e, e.Programs()[0]); got != c.want {
				t.Errorf("Frame.Apply failed %q, want %q", got, c.want)
			}
		})
	}
}
