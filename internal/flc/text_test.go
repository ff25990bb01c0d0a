package flc

import (
	"flag"
	"os"
	"testing"

	"repro/internal/hdl"
	"repro/internal/sim"
	"repro/internal/spec"
)

var update = flag.Bool("update", false, "rewrite golden files")

// flcSysHeader opens testdata/flc.sys, ahead of the printed system.
const flcSysHeader = "-- The Matsushita fuzzy logic controller case study (Fig. 6 of the\n" +
	"-- paper), printed from the canonical builder in internal/flc.\n" +
	"-- Regenerate: go test ./internal/flc -update\n" +
	"-- Try: go run ./cmd/ifsyn -summary -trace -run testdata/flc.sys\n"

// TestFLCSysFile pins testdata/flc.sys, the case study's textual form,
// to what the printer makes of the canonical builder. Regenerate the
// file with: go test ./internal/flc -update
func TestFLCSysFile(t *testing.T) {
	src, err := hdl.Print(New(DefaultConfig()).Sys)
	if err != nil {
		t.Fatal(err)
	}
	got := flcSysHeader + src
	const golden = "../../testdata/flc.sys"
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from the builder's printed form (%d vs %d bytes); re-run with -update if intended",
			golden, len(got), len(want))
	}
}

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
