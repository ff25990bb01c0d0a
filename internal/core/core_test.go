package core

import (
	"strings"
	"testing"

	"repro/internal/busgen"
	"repro/internal/hdl"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/spec"
)

const pqSource = `
system PQ is
  module comp1 is
    behavior P is
      variable AD : integer;
    begin
      AD := 5;
      X <= 32;
      MEM(AD) := X + 7;
    end behavior;
    behavior Q is
      variable COUNT : bit_vector(15 downto 0);
    begin
      wait for 500;
      COUNT := 9;
      MEM(60) := COUNT;
    end behavior;
  end module;
  module comp2 is
    variable X : bit_vector(15 downto 0);
    variable MEM : array(0 to 63) of bit_vector(15 downto 0);
  end module;
end system;
`

// TestEndToEndParseSynthesizeSimulate is the complete flow: text
// specification in, channels derived, bus generated, protocol generated,
// refined system simulated, functional results checked.
func TestEndToEndParseSynthesizeSimulate(t *testing.T) {
	sys, err := hdl.Parse(pqSource)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Synthesize(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.ChannelsDerived) != 4 {
		t.Fatalf("derived %d channels, want 4 (P:X rw, P:MEM w, Q:MEM w)", len(rep.ChannelsDerived))
	}
	if len(rep.Buses) != 1 {
		t.Fatalf("buses = %d", len(rep.Buses))
	}
	bus := rep.Buses[0].Bus
	if bus.Width <= 0 || bus.Width > 22 {
		t.Fatalf("generated width = %d", bus.Width)
	}
	if rep.Buses[0].Gen == nil {
		t.Fatal("no bus-generation trace")
	}

	s, err := sim.NewEngine(sys)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mem := res.Final("comp2", "MEM").(sim.ArrayVal)
	if mem.Elems[5].(sim.VecVal).V.Uint64() != 39 {
		t.Errorf("MEM(5) = %s, want 39", mem.Elems[5])
	}
	if mem.Elems[60].(sim.VecVal).V.Uint64() != 9 {
		t.Errorf("MEM(60) = %s, want 9", mem.Elems[60])
	}
	x := res.Final("comp2", "X").(sim.VecVal)
	if x.V.Uint64() != 32 {
		t.Errorf("X = %s, want 32", x)
	}
}

func TestSynthesizeForcedWidth(t *testing.T) {
	sys, err := hdl.Parse(pqSource)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Synthesize(sys, Options{ForceWidth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Buses[0].Bus.Width != 8 {
		t.Fatalf("width = %d", rep.Buses[0].Bus.Width)
	}
	if rep.Buses[0].Gen != nil {
		t.Error("forced width still ran bus generation")
	}
}

func TestSynthesizeWithConstraints(t *testing.T) {
	sys, err := hdl.Parse(pqSource)
	if err != nil {
		t.Fatal(err)
	}
	cfg := busgen.DefaultConfig()
	cfg.Constraints = []busgen.Constraint{
		{Kind: busgen.MinBusWidth, Value: 16, Weight: 5},
		{Kind: busgen.MaxBusWidth, Value: 16, Weight: 5},
	}
	rep, err := Synthesize(sys, Options{Bus: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Buses[0].Bus.Width; got != 16 {
		t.Fatalf("constrained width = %d, want 16", got)
	}
}

func TestSynthesizeHalfHandshake(t *testing.T) {
	sys, err := hdl.Parse(pqSource)
	if err != nil {
		t.Fatal(err)
	}
	cfg := busgen.DefaultConfig()
	cfg.Protocol = spec.HalfHandshake
	rep, err := Synthesize(sys, Options{Bus: cfg, ForceWidth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Buses[0].Bus.Protocol != spec.HalfHandshake {
		t.Error("protocol not propagated")
	}
	s, err := sim.NewEngine(sys)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mem := res.Final("comp2", "MEM").(sim.ArrayVal)
	if mem.Elems[5].(sim.VecVal).V.Uint64() != 39 {
		t.Errorf("MEM(5) = %s", mem.Elems[5])
	}
}

func TestSynthesizeRejectsNoCommunication(t *testing.T) {
	sys := spec.NewSystem("lonely")
	m := sys.AddModule("m")
	b := m.AddBehavior(spec.NewBehavior("B"))
	b.Body = []spec.Stmt{&spec.Null{}}
	_, err := Synthesize(sys, Options{})
	if err == nil || !strings.Contains(err.Error(), "no inter-module communication") {
		t.Fatalf("err = %v", err)
	}
}

func TestSynthesizeRespectsPrebuiltBuses(t *testing.T) {
	sys, err := hdl.Parse(pqSource)
	if err != nil {
		t.Fatal(err)
	}
	// Derive channels manually, then pre-group into one bus of width 4.
	rep1, err := Synthesize(sys, Options{ForceWidth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Buses[0].Bus.Width != 4 {
		t.Fatal("prebuilt width ignored")
	}
}

func TestDMAFileFlow(t *testing.T) {
	sys, err := hdl.ParseFile("../../testdata/dma.sys")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Synthesize(sys, Options{}); err != nil {
		t.Fatal(err)
	}
	s, err := sim.NewEngine(sys)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// checksum = sum(7*i, i=0..31) = 3472; low byte = 144.
	csum := res.Final("memchip", "CSUM").(sim.VecVal)
	if csum.V.Uint64() != 3472 {
		t.Errorf("CSUM = %d, want 3472", csum.V.Uint64())
	}
	if got := res.Final("memchip", "OBSERVED").(sim.IntVal); got.V != 144 {
		t.Errorf("OBSERVED = %d, want 144", got.V)
	}
	dst := res.Final("memchip", "DST").(sim.ArrayVal)
	if dst.Elems[31].(sim.VecVal).V.Uint64() != 31*7 {
		t.Errorf("DST[31] = %s", dst.Elems[31])
	}
}

func TestMultiBusSynthesis(t *testing.T) {
	// Three modules: behaviors on m1 talking to variables on m2 and
	// m3; ByModulePair grouping yields two buses, both refined and
	// simulated together.
	src := `
system Tri is
  module m1 is
    behavior W2 is
      variable i : integer;
    begin
      for i in 0 to 7 loop
        A2(i) := i * 3;
      end loop;
    end behavior;
    behavior W3 is
      variable i : integer;
    begin
      for i in 0 to 7 loop
        A3(i) := i * 5;
      end loop;
    end behavior;
  end module;
  module m2 is
    variable A2 : array(0 to 7) of bit_vector(8 downto 0);
  end module;
  module m3 is
    variable A3 : array(0 to 7) of bit_vector(8 downto 0);
  end module;
end system;`
	sys, err := hdl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Synthesize(sys, Options{Grouping: partition.ByModulePair})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Buses) != 2 {
		t.Fatalf("buses = %d, want 2", len(rep.Buses))
	}
	s, err := sim.NewEngine(sys)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	a2 := res.Final("m2", "A2").(sim.ArrayVal)
	a3 := res.Final("m3", "A3").(sim.ArrayVal)
	for i := 0; i < 8; i++ {
		if a2.Elems[i].(sim.VecVal).V.Uint64() != uint64(i*3) {
			t.Errorf("A2[%d] = %s", i, a2.Elems[i])
		}
		if a3.Elems[i].(sim.VecVal).V.Uint64() != uint64(i*5) {
			t.Errorf("A3[%d] = %s", i, a3.Elems[i])
		}
	}
}

func TestAutopartitionedFlatSystem(t *testing.T) {
	// The flat single-module DSP spec: automatic partitioning splits it
	// in two, channel derivation finds the cut's communication, and the
	// arbitrated synthesis still computes outA = 240, outB = 600.
	sys, err := hdl.ParseFile("../../testdata/flat.sys")
	if err != nil {
		t.Fatal(err)
	}
	if err := partition.Repartition(sys, 2, partition.Config{Balanced: true}); err != nil {
		t.Fatal(err)
	}
	if len(sys.Modules) != 2 {
		t.Fatalf("modules = %d", len(sys.Modules))
	}
	if len(sys.Channels) == 0 {
		t.Fatal("partition cut produced no channels")
	}
	if _, err := Synthesize(sys, Options{Arbitrate: true}); err != nil {
		t.Fatal(err)
	}
	s, err := sim.NewEngine(sys)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var outA, outB sim.Value
	for key, v := range res.Finals {
		if strings.HasSuffix(key, ".outA") {
			outA = v
		}
		if strings.HasSuffix(key, ".outB") {
			outB = v
		}
	}
	if outA == nil || !outA.Equal(sim.IntVal{V: 240}) {
		t.Errorf("outA = %v, want 240", outA)
	}
	if outB == nil || !outB.Equal(sim.IntVal{V: 600}) {
		t.Errorf("outB = %v, want 600", outB)
	}
}
