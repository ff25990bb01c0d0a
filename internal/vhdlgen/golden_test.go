package vhdlgen

import (
	"flag"
	"os"
	"testing"

	"repro/internal/protogen"
	"repro/internal/spec"
	"repro/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGoldenRefinedPQ pins the full emitted listing of the refined
// Fig. 3 system against testdata/pq_refined.vhdl.golden. Regenerate the
// golden with: go test ./internal/vhdlgen -run TestGoldenRefinedPQ -update
func TestGoldenRefinedPQ(t *testing.T) {
	sys, bus := workloads.PQ()
	if _, err := protogen.Generate(sys, bus, protogen.Config{Protocol: spec.FullHandshake}); err != nil {
		t.Fatal(err)
	}
	got := Emit(sys)
	const golden = "../../testdata/pq_refined.vhdl.golden"
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
		t.Errorf("emitted VHDL drifted from golden (re-run with -update if intentional)\n"+
			"got %d bytes, want %d", len(got), len(want))
	}
}
