package core

import (
	"testing"

	"repro/internal/flc"
	"repro/internal/partition"
	"repro/internal/sim"
)

// TestFLCFullySynthesizedWithArbitration pushes the whole case study
// through the flow at maximum stress: every channel of the FLC —
// including the membership-function memory traffic of INITIALIZE, the
// EVAL processes' table reads and the rule-parameter reads — is merged
// onto ONE arbitrated bus, protocol-generated, and simulated. The
// controller must compute exactly the same output as the abstract
// specification even though four EVAL processes contend for the bus
// concurrently.
func TestFLCFullySynthesizedWithArbitration(t *testing.T) {
	run := func(build func() *flc.System, synthesize bool) *sim.Result {
		f := build()
		if synthesize {
			if _, err := Synthesize(f.Sys, Options{
				Grouping:  partition.SingleBus,
				Arbitrate: true,
			}); err != nil {
				t.Fatal(err)
			}
		}
		s, err := sim.NewEngine(f.Sys)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(sim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	mk := func() *flc.System { return flc.New(flc.DefaultConfig()) }
	abstract := run(mk, false)
	refined := run(mk, true)
	for _, key := range []string{"chip1.control", "chip1.centroid",
		"chip2.trru0", "chip2.trru1", "chip2.trru2", "chip2.trru3",
		"chip2.InitMemberFunct", "chip2.rule1", "chip2.rule3"} {
		if !abstract.Finals[key].Equal(refined.Finals[key]) {
			t.Errorf("%s differs after full synthesis", key)
		}
	}
	if refined.Clocks <= abstract.Clocks {
		t.Error("fully synthesized FLC not slower than abstract")
	}
}
