package core

import (
	"context"
	"errors"
	"fmt"
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

// unsupportedRemoteAccess holds specs that parse and validate but make
// a remote access no channel transfer expresses, with the message
// protocol generation reports for each.
var unsupportedRemoteAccess = []struct{ name, src, want string }{
	{"slice-write", `system S is
  module comp1 is
    behavior P is
    begin
      X(3 downto 0) := "1010";
    end behavior;
  end module;
  module comp2 is
    variable X : bit_vector(7 downto 0);
  end module;
end system;
`, "protogen: unsupported remote write target"},
	{"whole-array-read", `system S is
  module comp1 is
    behavior P is
      variable Y : array(0 to 3) of bit_vector(7 downto 0);
    begin
      Y := X;
    end behavior;
  end module;
  module comp2 is
    variable X : array(0 to 3) of bit_vector(7 downto 0);
  end module;
end system;
`, "protogen: whole-array read of remote X in behavior P"},
}

// TestSynthesizeRejectsUnsupportedRemoteAccess: text reaches protocol
// generation, so an access it cannot rewrite is an error, never a panic
// (which in ifsynd fires on a job worker with no recover).
func TestSynthesizeRejectsUnsupportedRemoteAccess(t *testing.T) {
	for _, c := range unsupportedRemoteAccess {
		sys, err := hdl.Parse(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if _, err := Synthesize(sys, Options{}); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
}

// writers builds a system whose n behaviors each write a bits-wide
// vector held on another module, over one channel each.
func writers(n, bits int) *spec.System {
	sys := spec.NewSystem("Wide")
	src := sys.AddModule("src")
	dst := sys.AddModule("dst")
	for i := 0; i < n; i++ {
		v := dst.AddVariable(spec.NewVar(fmt.Sprintf("V%d", i), spec.BitVector(bits)))
		b := src.AddBehavior(spec.NewBehavior(fmt.Sprintf("P%d", i)))
		l := b.AddVar("L", spec.BitVector(bits))
		b.Body = []spec.Stmt{spec.AssignSig(spec.Ref(v), spec.Ref(l))}
		sys.AddChannel(&spec.Channel{Name: fmt.Sprintf("C%d", i), Accessor: b, Var: v, Dir: spec.Write})
	}
	return sys
}

// TestWordTransferBound: eight 4,096-bit writes at width 1 unroll
// 32,768 word transfers, twice the bound, and must be refused before
// protocol generation adds anything to the system. Sixty-four such
// channels in a 268 KB spec once took 4.75 s and 1.31 GB to
// synthesize and rendered a 264 MB listing. Four channels, exactly at
// the bound, still synthesize.
func TestWordTransferBound(t *testing.T) {
	sys := writers(8, 4096)
	_, err := Synthesize(sys, Options{Workers: 1, ForceWidth: 1})
	if err == nil || !strings.Contains(err.Error(), "32768 word transfers") || !strings.Contains(err.Error(), "16384") {
		t.Fatalf("err = %v, want the 32768 transfers refused at the limit of 16384", err)
	}
	if len(sys.Globals) != 0 || len(sys.Buses) != 1 || sys.Buses[0].Signal != nil {
		t.Fatalf("refused system was refined: %d globals, %d buses", len(sys.Globals), len(sys.Buses))
	}
	if _, err := Synthesize(writers(4, 4096), Options{Workers: 1, ForceWidth: 1}); err != nil {
		t.Fatalf("16384 transfers: %v", err)
	}
}

// TestBusWidthBound: a bus wider than the widest legal vector is
// refused before protocol generation. With parity, a 2^30-bit bus once
// asked for a 2^30-entry slice per word.
func TestBusWidthBound(t *testing.T) {
	sys := writers(1, 8)
	_, err := Synthesize(sys, Options{Workers: 1, ForceWidth: 1 << 30, Robust: true, Parity: true})
	if err == nil || !strings.Contains(err.Error(), "1073741824 bits wide, above the limit of 4096") {
		t.Fatalf("err = %v, want the width refused", err)
	}
	if len(sys.Globals) != 0 {
		t.Fatalf("refused system was refined: %d globals", len(sys.Globals))
	}
	if _, err := Synthesize(writers(1, 8), Options{Workers: 1, ForceWidth: spec.MaxVectorWidth, Robust: true, Parity: true}); err != nil {
		t.Fatalf("width %d: %v", spec.MaxVectorWidth, err)
	}
}

// TestParityTermBound: every word's parity tree XORs the bus's DATA
// and ID lines, so 32 one-bit writes at width 4,096 cover 32 x (4,096
// + 5) = 131,232 lines under parity, just past the bound, and are
// refused; 16,000 such channels would build trees over about 66 million
// lines. Without parity the same bus unrolls only 32 transfers and
// synthesizes, and 31 channels (127,131 lines) synthesize with parity.
func TestParityTermBound(t *testing.T) {
	hardened := Options{Workers: 1, ForceWidth: 4096, Robust: true, Parity: true}
	sys := writers(32, 1)
	_, err := Synthesize(sys, hardened)
	if err == nil || !strings.Contains(err.Error(), "131232 bus lines, above the limit of 131072") {
		t.Fatalf("err = %v, want the parity trees refused", err)
	}
	if len(sys.Globals) != 0 {
		t.Fatalf("refused system was refined: %d globals", len(sys.Globals))
	}
	if _, err := Synthesize(writers(32, 1), Options{Workers: 1, ForceWidth: 4096, Robust: true}); err != nil {
		t.Fatalf("without parity: %v", err)
	}
	if _, err := Synthesize(writers(31, 1), hardened); err != nil {
		t.Fatalf("31 channels: %v", err)
	}
}

// TestRefusalsAreInputErrors: every refusal the input causes is an
// *InputError whose text is the refusal's own, so ifsynd can answer it
// with 400; a canceled run is not one.
func TestRefusalsAreInputErrors(t *testing.T) {
	dupModule := writers(1, 8)
	dupModule.AddModule("src")
	silent := spec.NewSystem("Silent")
	silent.AddModule("m")
	for _, c := range []struct {
		name string
		sys  *spec.System
		opts Options
		want string
	}{
		{"invalid system", dupModule, Options{}, `core: invalid input system: duplicate module name "src"`},
		{"no communication", silent, Options{}, "core: system Silent has no inter-module communication"},
		{"bus width", writers(1, 8), Options{ForceWidth: 1 << 30}, "core: bus B is 1073741824 bits wide, above the limit of 4096"},
		{"word transfers", writers(8, 4096), Options{ForceWidth: 1}, "core: the buses unroll 32768 word transfers, above the limit of 16384"},
		{"parity lines", writers(32, 1), Options{ForceWidth: 4096, Robust: true, Parity: true}, "core: the parity trees cover 131232 bus lines, above the limit of 131072"},
		{"protogen config", writers(1, 8), Options{Parity: true}, "core: bus B: protogen: Parity requires Robust"},
		{"protogen config, repair", writers(1, 8), Options{Parity: true, Repair: true}, "core: repair: repair: iteration 0: generate: protogen: Parity requires Robust"},
	} {
		c.opts.Workers = 1
		_, err := Synthesize(c.sys, c.opts)
		var ie *InputError
		if !errors.As(err, &ie) || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("%s: err = %v (%T), want an *InputError reading %q", c.name, err, err, c.want)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SynthesizeCtx(ctx, writers(1, 8), Options{Workers: 1})
	var ie *InputError
	if err == nil || errors.As(err, &ie) {
		t.Errorf("canceled run: err = %v, want a non-input error", err)
	}
}
