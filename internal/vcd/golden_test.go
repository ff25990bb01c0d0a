package vcd

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/protogen"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGoldenRobustHandshakeDump pins the complete VCD dump of the
// robust full-handshake PQ refinement byte for byte. The simulator is
// deterministic and the writer must be too — header ordering, id
// assignment, repeat suppression, timestamp placement. Any drift in
// protocol generation, kernel scheduling or the writer shows up here
// as a diff against testdata/robust_pq.vcd (regenerate deliberately
// with -update after verifying the new waveform is right).
func TestGoldenRobustHandshakeDump(t *testing.T) {
	sys, bus := workloads.PQ()
	if _, err := protogen.Generate(sys, bus, protogen.Config{
		Protocol:      spec.FullHandshake,
		Robust:        true,
		TimeoutClocks: 8,
		MaxRetries:    2,
	}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	w, err := NewWriter(&sb, sys)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.NewEngine(sys)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(sim.Config{OnEvent: w.OnEvent})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(res.Clocks); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	// The robust refinement's extra wires must be in the dump at all —
	// a golden match against a stale file should not pass silently.
	for _, want := range []string{"B.RST", "B.START", "B.DONE"} {
		if !strings.Contains(got, want) {
			t.Fatalf("dump missing %s declaration", want)
		}
	}

	golden := filepath.Join("testdata", "robust_pq.vcd")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if got != string(want) {
		t.Fatalf("VCD dump drifted from %s (%d vs %d bytes); first divergence at byte %d.\nIf the change is intended, re-run with -update.",
			golden, len(got), len(want), firstDiff(got, string(want)))
	}
}

func firstDiff(a, b string) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
