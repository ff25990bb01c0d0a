package sim

import (
	"errors"
	"testing"

	"repro/internal/protogen"
	"repro/internal/spec"
)

// buildDoubleWrite returns a system whose accessor performs two
// back-to-back transactions on the SAME channel (two writes to V), over
// a two-channel bus so ID lines exist.
func buildDoubleWrite() (*spec.System, *spec.Bus) {
	sys := spec.NewSystem("dw")
	m1 := sys.AddModule("m1")
	m2 := sys.AddModule("m2")
	b := m1.AddBehavior(spec.NewBehavior("W"))
	v := m2.AddVariable(spec.NewVar("V", spec.BitVector(8)))
	u := m2.AddVariable(spec.NewVar("U", spec.BitVector(8)))
	b.Body = []spec.Stmt{
		spec.AssignVar(spec.Ref(v), spec.VecString("00000001")),
		spec.AssignVar(spec.Ref(v), spec.VecString("00000010")), // same channel again
		spec.AssignVar(spec.Ref(u), spec.VecString("00000011")),
	}
	cv := sys.AddChannel(&spec.Channel{Name: "cv", Accessor: b, Var: v, Dir: spec.Write})
	cu := sys.AddChannel(&spec.Channel{Name: "cu", Accessor: b, Var: u, Dir: spec.Write})
	bus := &spec.Bus{Name: "DB", Channels: []*spec.Channel{cv, cu}, Width: 8}
	sys.Buses = append(sys.Buses, bus)
	return sys, bus
}

// TestPaperIDDispatcherDeadlocks reproduces, as executable evidence, why
// this implementation deviates from the paper's Fig. 5 listing: a
// variable process that waits for *events on the ID lines* ("wait on
// B.ID") never wakes for the second of two back-to-back transactions on
// the same channel, because the ID lines do not change. After protocol
// generation we rewrite the generated dispatcher into the paper's
// ID-event form and show the simulation deadlocks; the generated
// START-strobe dispatcher handles the same workload fine.
func TestPaperIDDispatcherDeadlocks(t *testing.T) {
	// First: the generated dispatcher works.
	okSys, okBus := buildDoubleWrite()
	if _, err := protogen.Generate(okSys, okBus, protogen.Config{Protocol: spec.FullHandshake}); err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, okSys, Config{})
	if got := res.Final("m2", "V").(VecVal).V.Uint64(); got != 2 {
		t.Fatalf("V = %d, want 2", got)
	}

	// Second: the paper-faithful ID-event dispatcher deadlocks.
	sys, bus := buildDoubleWrite()
	ref, err := protogen.Generate(sys, bus, protogen.Config{Protocol: spec.FullHandshake})
	if err != nil {
		t.Fatal(err)
	}
	for _, server := range ref.Servers {
		loop, ok := server.Body[0].(*spec.Loop)
		if !ok {
			t.Fatal("dispatcher shape unexpected")
		}
		// Replace "wait until B.START = '1'" with the ID-event form:
		//   idPrev := B.ID;  wait until B.ID /= idPrev;
		idPrev := server.AddVar("idPrev", spec.BitVector(bus.IDBits()))
		idField := spec.FieldOf(spec.Ref(ref.BusSignal), "ID")
		loop.Body = append([]spec.Stmt{
			spec.AssignVar(spec.Ref(idPrev), idField),
			spec.WaitUntil(spec.Neq(idField, spec.Ref(idPrev))),
		}, loop.Body[1:]...)
	}
	s, err := NewEngine(sys)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Run(Config{MaxClocks: 100000})
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("paper-style dispatcher did not deadlock: err = %v", err)
	}
}
