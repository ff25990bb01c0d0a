package flc

import (
	"testing"

	"repro/internal/hdl"
	"repro/internal/sim"
	"repro/internal/spec"
)

// TestFLCTextRoundTrip prints the whole twelve-process FLC into the
// textual specification language, reparses it, and verifies the
// reparsed system simulates to exactly the same final state — the
// front end exercised at full case-study scale.
func TestFLCTextRoundTrip(t *testing.T) {
	orig := New(DefaultConfig())
	src, err := hdl.Print(orig.Sys)
	if err != nil {
		t.Fatal(err)
	}
	reparsed, err := hdl.Parse(src)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	run := func(sys *spec.System) *sim.Result {
		s, err := sim.NewEngine(sys)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(sim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run(orig.Sys)
	b := run(reparsed)
	for key, want := range a.Finals {
		if got, ok := b.Finals[key]; !ok || !got.Equal(want) {
			t.Errorf("%s differs after text round trip", key)
		}
	}
	// The reparsed system carries the paper's channels by name.
	if reparsed.FindChannel("ch1") == nil || reparsed.FindChannel("ch2") == nil {
		t.Error("ch1/ch2 lost in round trip")
	}
}
