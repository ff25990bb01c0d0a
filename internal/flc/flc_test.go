package flc

import (
	"testing"

	"repro/internal/estimate"
	"repro/internal/partition"
	"repro/internal/protogen"
	"repro/internal/sim"
	"repro/internal/spec"
)

func TestGeometryMatchesPaper(t *testing.T) {
	f := New(DefaultConfig())
	if f.Ch1.MessageBits() != 23 || f.Ch2.MessageBits() != 23 {
		t.Fatalf("message bits = %d/%d, want 23 (16 data + 7 addr)",
			f.Ch1.MessageBits(), f.Ch2.MessageBits())
	}
	imf := f.Sys.FindVariable("InitMemberFunct")
	if imf.Type.(spec.ArrayType).Length != 1920 {
		t.Fatalf("InitMemberFunct length = %d", imf.Type.(spec.ArrayType).Length)
	}
	for _, name := range []string{"trru0", "trru1", "trru2", "trru3"} {
		v := f.Sys.FindVariable(name)
		at := v.Type.(spec.ArrayType)
		if at.Length != 128 || at.Elem.BitWidth() != 16 {
			t.Errorf("%s = %v", name, v.Type)
		}
		if v.Owner.Name != "chip2" {
			t.Errorf("%s on %s", name, v.Owner.Name)
		}
	}
	if f.Sys.FindVariable("rule1").Type.(spec.ArrayType).Length != 3 {
		t.Error("rule1 shape wrong")
	}
	// Fig. 6's process inventory.
	for _, p := range []string{"INITIALIZE", "CONVERT_FACTS", "EVAL_R0", "EVAL_R1",
		"EVAL_R2", "EVAL_R3", "CONV_R0", "CONV_R1", "CONV_R2", "CONV_R3",
		"CENTROID", "CONVERT_CTRL"} {
		b := f.Sys.FindBehavior(p)
		if b == nil {
			t.Errorf("missing process %s", p)
			continue
		}
		if b.Owner.Name != "chip1" {
			t.Errorf("%s on %s", p, b.Owner.Name)
		}
	}
	if f.Ch1.Accessor.Name != "EVAL_R3" || f.Ch1.Var.Name != "trru0" || f.Ch1.Dir != spec.Write {
		t.Errorf("ch1 = %s", f.Ch1)
	}
	if f.Ch2.Accessor.Name != "CONV_R2" || f.Ch2.Var.Name != "trru2" || f.Ch2.Dir != spec.Read {
		t.Errorf("ch2 = %s", f.Ch2)
	}
}

func TestValidatesAndDerivesRemainingChannels(t *testing.T) {
	f := New(DefaultConfig())
	if errs := f.Sys.Validate(); len(errs) != 0 {
		t.Fatalf("invalid: %v", errs[0])
	}
	created, err := partition.DeriveChannels(f.Sys)
	if err != nil {
		t.Fatal(err)
	}
	// Everything beyond ch1/ch2: INITIALIZE writes InitMemberFunct +
	// rule1 + rule3; CONVERT_FACTS, EVAL_R0..3, CONVERT_CTRL read
	// InitMemberFunct; EVAL_R0..2 write trru3/1/2; CONV_R0,1,3 read
	// trru0/1/3; CONV_R1 reads rule1; CONV_R3 reads rule3.
	if len(created) < 12 {
		t.Fatalf("derived only %d extra channels", len(created))
	}
	for _, c := range created {
		if c.Name == "ch1" || c.Name == "ch2" {
			t.Errorf("derivation recreated %s", c.Name)
		}
	}
}

func TestChannelAccessCountsAre128(t *testing.T) {
	f := New(DefaultConfig())
	est := estimate.New([]*spec.Channel{f.Ch1, f.Ch2})
	if got := est.Accesses(f.Ch1); got != 128 {
		t.Errorf("ch1 accesses = %d, want 128", got)
	}
	if got := est.Accesses(f.Ch2); got != 128 {
		t.Errorf("ch2 accesses = %d, want 128", got)
	}
	if got := est.TotalBits(f.Ch1); got != 128*23 {
		t.Errorf("ch1 total bits = %d", got)
	}
}

func TestCompTimesInFig7Band(t *testing.T) {
	// Fig. 7's crossover: CONV_R2 meets a 2000-clock constraint only
	// for widths > 4, i.e. comm(4)=1536 pushes it over and
	// comm(5)=1280 keeps it under. That pins CONV_R2's computation
	// time to (464, 720] clocks under the full handshake.
	f := New(DefaultConfig())
	est := estimate.New([]*spec.Channel{f.Ch1, f.Ch2})
	conv := est.CompTime(f.ConvR2)
	if conv <= 464 || conv > 720 {
		t.Errorf("CONV_R2 comp time = %d, outside (464, 720]", conv)
	}
	eval := est.CompTime(f.EvalR3)
	if eval <= 0 {
		t.Fatalf("EVAL_R3 comp = %d", eval)
	}
	// Fig. 7 plots EVAL_R3 above CONV_R2 across the sweep.
	if eval <= conv {
		t.Errorf("EVAL_R3 comp (%d) not above CONV_R2 comp (%d)", eval, conv)
	}
	// At width 4 CONV_R2 must violate the 2000-clock constraint, at 5
	// it must meet it.
	at4 := est.ExecTime(f.ConvR2, 4, spec.FullHandshake)
	at5 := est.ExecTime(f.ConvR2, 5, spec.FullHandshake)
	if at4 <= 2000 {
		t.Errorf("CONV_R2 at width 4 = %d, want > 2000", at4)
	}
	if at5 > 2000 {
		t.Errorf("CONV_R2 at width 5 = %d, want <= 2000", at5)
	}
}

func TestFunctionalSimulationUnrefined(t *testing.T) {
	// The FLC computes a deterministic control output with abstract
	// (direct-access) channels.
	f := New(DefaultConfig())
	s, err := sim.NewEngine(f.Sys)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	control := res.Final("chip1", "control").(sim.IntVal)
	if control.V < 0 || control.V > 127 {
		t.Fatalf("control = %d, outside actuator range", control.V)
	}
	centroid := res.Final("chip1", "centroid").(sim.IntVal)
	if centroid.V <= 0 {
		t.Fatalf("centroid = %d, expected positive (inputs activate rules)", centroid.V)
	}
}

func TestRefinedBusBPreservesFunction(t *testing.T) {
	// Refine bus B (ch1 + ch2) at width 8 and compare the control
	// output with the unrefined run — the FLC-scale version of the
	// paper's functional-equivalence claim.
	ref := New(DefaultConfig())
	s1, err := sim.NewEngine(ref.Sys)
	if err != nil {
		t.Fatal(err)
	}
	base, err := s1.Run(sim.Config{})
	if err != nil {
		t.Fatal(err)
	}

	f := New(DefaultConfig())
	bus := f.BusB(8)
	if _, err := protogen.Generate(f.Sys, bus, protogen.Config{Protocol: spec.FullHandshake}); err != nil {
		t.Fatal(err)
	}
	s2, err := sim.NewEngine(f.Sys)
	if err != nil {
		t.Fatal(err)
	}
	refined, err := s2.Run(sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"chip1.control", "chip1.centroid", "chip2.trru0", "chip2.trru2"} {
		if !base.Finals[key].Equal(refined.Finals[key]) {
			t.Errorf("%s differs after refinement", key)
		}
	}
	if refined.Clocks <= base.Clocks {
		t.Errorf("refined run not slower: %d vs %d", refined.Clocks, base.Clocks)
	}
}

func TestDifferentInputsChangeOutput(t *testing.T) {
	outs := map[int64]bool{}
	for _, cfg := range []Config{{Temperature: 10, Humidity: 10}, {Temperature: 80, Humidity: 40}, {Temperature: 120, Humidity: 100}} {
		f := New(cfg)
		s, err := sim.NewEngine(f.Sys)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(sim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		outs[res.Final("chip1", "centroid").(sim.IntVal).V] = true
	}
	if len(outs) < 2 {
		t.Errorf("centroid insensitive to inputs: %v", outs)
	}
}

func TestBadInputsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(Config{Temperature: 200, Humidity: 0})
}
