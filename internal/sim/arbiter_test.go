package sim

import (
	"testing"

	"repro/internal/protogen"
	"repro/internal/spec"
)

// buildConcurrentPQ is buildPQ without Q's stagger: both accessors open
// transactions at time zero, which corrupts an unarbitrated bus.
func buildConcurrentPQ() (*spec.System, *spec.Bus) {
	sys, bus := buildPQ()
	q := sys.FindBehavior("Q")
	q.Body = q.Body[1:] // drop the WaitFor(500)
	return sys, bus
}

// TestArbitratedConcurrentAccessors is the future-work extension at
// work: with REQ/GRANT arbitration, P and Q may start concurrently and
// the refined system still computes the right values.
func TestArbitratedConcurrentAccessors(t *testing.T) {
	sys, bus := buildConcurrentPQ()
	ref, err := protogen.Generate(sys, bus, protogen.Config{
		Protocol:  spec.FullHandshake,
		Arbitrate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Arbiter == nil {
		t.Fatal("no arbiter generated")
	}
	if !bus.Arbitrated {
		t.Fatal("bus not marked arbitrated")
	}
	// Arbitration wires: REQ(2) + GRANT(1) + GVALID(1) on top of
	// 8 data + 2 control + 2 id.
	if bus.TotalLines() != 12+4 {
		t.Fatalf("total lines = %d, want 16", bus.TotalLines())
	}
	if bus.Record.FieldType("REQ") == nil || bus.Record.FieldType("GVALID") == nil {
		t.Fatal("arbitration fields missing from the bus record")
	}

	res := mustRun(t, sys, Config{})
	mem := res.Final("comp2", "MEM").(ArrayVal)
	if mem.Elems[5].(VecVal).V.Uint64() != 39 {
		t.Errorf("MEM(5) = %s, want 39", mem.Elems[5])
	}
	if mem.Elems[60].(VecVal).V.Uint64() != 9 {
		t.Errorf("MEM(60) = %s, want 9", mem.Elems[60])
	}
	x := res.Final("comp2", "X").(VecVal)
	if x.V.Uint64() != 32 {
		t.Errorf("X = %d, want 32", x.V.Uint64())
	}
}

// TestArbitrationDelayMeasured quantifies the arbitration delay the
// paper asks about: the arbitrated staggered run must be a little
// slower than the unarbitrated staggered run, but by a bounded
// per-transaction cost.
func TestArbitrationDelayMeasured(t *testing.T) {
	plainSys, plainBus := buildPQ()
	if _, err := protogen.Generate(plainSys, plainBus, protogen.Config{Protocol: spec.FullHandshake}); err != nil {
		t.Fatal(err)
	}
	plain := mustRun(t, plainSys, Config{})

	arbSys, arbBus := buildPQ()
	if _, err := protogen.Generate(arbSys, arbBus, protogen.Config{
		Protocol: spec.FullHandshake, Arbitrate: true,
	}); err != nil {
		t.Fatal(err)
	}
	arb := mustRun(t, arbSys, Config{})

	if !plain.Final("comp2", "MEM").Equal(arb.Final("comp2", "MEM")) {
		t.Fatal("arbitration changed functional results")
	}
	if arb.Clocks <= plain.Clocks {
		t.Fatalf("arbitrated run (%d clocks) not slower than plain (%d)", arb.Clocks, plain.Clocks)
	}
	// 5 transactions (CH0, CH1, CH2 by P; CH3 by Q; CH1 counts once);
	// arbitration adds roughly 2 clocks each plus delta overheads —
	// bound the total overhead loosely.
	overhead := arb.Clocks - plain.Clocks
	if overhead > 50 {
		t.Fatalf("arbitration overhead = %d clocks, implausibly large", overhead)
	}
}

// TestArbiterSingleAccessorElided checks that single-accessor buses get
// no arbitration hardware even when requested.
func TestArbiterSingleAccessorElided(t *testing.T) {
	sys := spec.NewSystem("single")
	m1 := sys.AddModule("m1")
	m2 := sys.AddModule("m2")
	b := m1.AddBehavior(spec.NewBehavior("B"))
	v := m2.AddVariable(spec.NewVar("V", spec.BitVector(8)))
	l := b.AddVar("l", spec.BitVector(8))
	b.Body = []spec.Stmt{spec.AssignVar(spec.Ref(v), spec.Ref(l))}
	ch := sys.AddChannel(&spec.Channel{Name: "c0", Accessor: b, Var: v, Dir: spec.Write})
	bus := &spec.Bus{Name: "SB", Channels: []*spec.Channel{ch}, Width: 8}
	sys.Buses = append(sys.Buses, bus)
	ref, err := protogen.Generate(sys, bus, protogen.Config{Protocol: spec.FullHandshake, Arbitrate: true})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Arbiter != nil {
		t.Fatal("arbiter generated for a single accessor")
	}
	if bus.Record.FieldType("REQ") != nil {
		t.Fatal("REQ lines on a single-accessor bus")
	}
	mustRun(t, sys, Config{})
}

// TestArbitratedHammering drives two accessors through many
// back-to-back transactions each — the stress case for grant handoff.
func TestArbitratedHammering(t *testing.T) {
	sys := spec.NewSystem("hammer")
	m1 := sys.AddModule("m1")
	m2 := sys.AddModule("m2")
	a := m1.AddBehavior(spec.NewBehavior("A"))
	b := m1.AddBehavior(spec.NewBehavior("Bb"))
	arrA := m2.AddVariable(spec.NewVar("arrA", spec.Array(32, spec.BitVector(16))))
	arrB := m2.AddVariable(spec.NewVar("arrB", spec.Array(32, spec.BitVector(16))))
	for _, pair := range []struct {
		beh *spec.Behavior
		arr *spec.Variable
		off int64
	}{{a, arrA, 100}, {b, arrB, 200}} {
		i := pair.beh.AddVar("i", spec.Integer)
		pair.beh.Body = []spec.Stmt{
			&spec.For{Var: i, From: spec.Int(0), To: spec.Int(31), Body: []spec.Stmt{
				spec.AssignVar(spec.At(spec.Ref(pair.arr), spec.Ref(i)),
					spec.ToVec(spec.Add(spec.Ref(i), spec.Int(pair.off)), 16)),
			}},
		}
	}
	chA := sys.AddChannel(&spec.Channel{Name: "ca", Accessor: a, Var: arrA, Dir: spec.Write})
	chB := sys.AddChannel(&spec.Channel{Name: "cb", Accessor: b, Var: arrB, Dir: spec.Write})
	bus := &spec.Bus{Name: "HB", Channels: []*spec.Channel{chA, chB}, Width: 7}
	sys.Buses = append(sys.Buses, bus)
	if _, err := protogen.Generate(sys, bus, protogen.Config{Protocol: spec.FullHandshake, Arbitrate: true}); err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, sys, Config{})
	gotA := res.Final("m2", "arrA").(ArrayVal)
	gotB := res.Final("m2", "arrB").(ArrayVal)
	for i := 0; i < 32; i++ {
		if gotA.Elems[i].(VecVal).V.Uint64() != uint64(i+100) {
			t.Fatalf("arrA[%d] = %s, want %d", i, gotA.Elems[i], i+100)
		}
		if gotB.Elems[i].(VecVal).V.Uint64() != uint64(i+200) {
			t.Fatalf("arrB[%d] = %s, want %d", i, gotB.Elems[i], i+200)
		}
	}
}

// TestUnarbitratedConcurrentAccessCorrupts documents the hazard the
// arbiter removes: with concurrent accessors and no arbitration, the
// run either deadlocks or computes wrong values. (Either failure mode
// is acceptable — the point is that it does not silently succeed in
// general; this pins today's deterministic outcome.)
func TestUnarbitratedConcurrentAccessCorrupts(t *testing.T) {
	sys, bus := buildConcurrentPQ()
	if _, err := protogen.Generate(sys, bus, protogen.Config{Protocol: spec.FullHandshake}); err != nil {
		t.Fatal(err)
	}
	s, err := NewEngine(sys)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(Config{MaxClocks: 100000})
	if err != nil {
		return // deadlock/timeout: hazard manifested
	}
	mem := res.Final("comp2", "MEM").(ArrayVal)
	ok := mem.Elems[5].(VecVal).V.Uint64() == 39 &&
		mem.Elems[60].(VecVal).V.Uint64() == 9 &&
		res.Final("comp2", "X").(VecVal).V.Uint64() == 32
	if ok {
		t.Skip("interleaving happened to be benign on this schedule")
	}
}

// buildHammer builds two accessors writing disjoint remote arrays over
// one shared bus, with no staggering.
func buildHammer(n int) (*spec.System, *spec.Bus) {
	sys := spec.NewSystem("hammer")
	m1 := sys.AddModule("m1")
	m2 := sys.AddModule("m2")
	var chans []*spec.Channel
	for bi := 0; bi < 2; bi++ {
		b := m1.AddBehavior(spec.NewBehavior([]string{"A", "Bb"}[bi]))
		arr := m2.AddVariable(spec.NewVar([]string{"arrA", "arrB"}[bi], spec.Array(n, spec.BitVector(16))))
		i := b.AddVar("i", spec.Integer)
		off := int64(100 * (bi + 1))
		b.Body = []spec.Stmt{
			&spec.For{Var: i, From: spec.Int(0), To: spec.Int(int64(n - 1)), Body: []spec.Stmt{
				spec.AssignVar(spec.At(spec.Ref(arr), spec.Ref(i)),
					spec.ToVec(spec.Add(spec.Ref(i), spec.Int(off)), 16)),
			}},
		}
		chans = append(chans, sys.AddChannel(&spec.Channel{
			Name: []string{"ca", "cb"}[bi], Accessor: b, Var: arr, Dir: spec.Write,
		}))
	}
	bus := &spec.Bus{Name: "HB", Channels: chans, Width: 8}
	sys.Buses = append(sys.Buses, bus)
	return sys, bus
}

// TestRoundRobinArbiterCorrectAndFair compares the two generated
// arbiter policies under symmetric load: both must compute correct
// results; round-robin must finish the two accessors closer together
// than (or as close as) fixed priority, which structurally favors
// accessor 0.
func TestRoundRobinArbiterCorrectAndFair(t *testing.T) {
	gap := func(policy protogen.ArbiterPolicy) int64 {
		sys, bus := buildHammer(24)
		if _, err := protogen.Generate(sys, bus, protogen.Config{
			Protocol: spec.FullHandshake, Arbitrate: true, ArbiterPolicy: policy,
		}); err != nil {
			t.Fatal(err)
		}
		res := mustRun(t, sys, Config{})
		arrA := res.Final("m2", "arrA").(ArrayVal)
		arrB := res.Final("m2", "arrB").(ArrayVal)
		for i := 0; i < 24; i++ {
			if arrA.Elems[i].(VecVal).V.Uint64() != uint64(i+100) ||
				arrB.Elems[i].(VecVal).V.Uint64() != uint64(i+200) {
				t.Fatalf("policy %s: wrong data at %d", policy, i)
			}
		}
		d := res.ProcessEnd["A"] - res.ProcessEnd["Bb"]
		if d < 0 {
			d = -d
		}
		return d
	}
	prio := gap(protogen.PriorityArbiter)
	rr := gap(protogen.RoundRobinArbiter)
	if rr > prio {
		t.Errorf("round-robin completion gap (%d) worse than priority (%d)", rr, prio)
	}
	// Round-robin alternates strictly under symmetric load: the two
	// accessors finish within a couple of transactions of each other.
	if rr > 60 {
		t.Errorf("round-robin gap = %d clocks, not fair", rr)
	}
}
