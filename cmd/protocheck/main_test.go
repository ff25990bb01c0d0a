package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// checkGolden runs protocheck and compares its stdout to a golden file
// byte for byte — the -json surface is part of the machine interface
// (CI and the daemon's clients parse it), so its exact shape is pinned.
// Regenerate with: go test ./cmd/protocheck -run TestJSON -update
func checkGolden(t *testing.T, args []string, wantCode int, goldenName string) []byte {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != wantCode {
		t.Fatalf("run(%v) = %d, want %d\nstderr: %s", args, code, wantCode, errb.String())
	}
	golden := filepath.Join("testdata", goldenName)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("output differs from %s:\n--- got ---\n%s--- want ---\n%s", golden, out.Bytes(), want)
	}
	return out.Bytes()
}

// TestJSONVerdictClean: exhaustive clean verdict on the ideal-wire
// PQSolo refinement.
func TestJSONVerdictClean(t *testing.T) {
	b := checkGolden(t, []string{"-workload", "pq-solo", "-json"}, 0, "pqsolo_clean.json")
	var v jsonVerdict
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if !v.Match || v.Verify == nil || !v.Verify.Clean || v.Verify.States == 0 {
		t.Fatalf("unexpected verdict: %+v", v)
	}
	if v.SpecHash == "" {
		t.Fatal("spec hash missing")
	}
}

// TestJSONVerdictPQ: the full PQ refinement, ideal-wire and robust,
// pinned byte for byte — state and transition counts and the
// reachable-set fingerprint, not only the verdict. The drop-1 rows pin
// the scenario counters of fault-budget runs, which store through every
// MEM(addr) lvalue: the ideal-wire handshake stops at the violation
// cap, and the robust one at a 100,000-state bound.
func TestJSONVerdictPQ(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
		clean  bool
	}{
		{"pq_clean.json", []string{"-json"}, true},
		{"pq_robust_clean.json", []string{"-robust", "-json"}, true},
		{"pq_drop1.json", []string{"-drops", "1", "-expect", "any", "-json"}, false},
		{"pq_robust_drop1.json", []string{"-robust", "-drops", "1", "-states", "100000", "-expect", "any", "-json"}, false},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			var v jsonVerdict
			if err := json.Unmarshal(checkGolden(t, tc.args, 0, tc.golden), &v); err != nil {
				t.Fatalf("output is not valid JSON: %v", err)
			}
			if !v.Match || v.Verify == nil || v.Verify.Clean != tc.clean {
				t.Fatalf("unexpected verdict: %+v", v)
			}
		})
	}
}

// TestJSONVerdictViolations: a 1-drop budget wedges the ideal-wire
// handshake; the document must carry the violations and the
// counterexample's replay outcome.
func TestJSONVerdictViolations(t *testing.T) {
	b := checkGolden(t, []string{"-workload", "pq-solo", "-drops", "1", "-expect", "any", "-json"}, 0, "pqsolo_drops.json")
	var v jsonVerdict
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatal(err)
	}
	if len(v.Verify.Violations) == 0 {
		t.Fatalf("no violations in document: %+v", v)
	}
	if v.Replay == "" {
		t.Fatal("replay outcome missing")
	}
}

// TestJSONRepairTrace: the CEGIS loop's machine-readable trace — the
// same RepairJSON shape the daemon returns — pinned end to end on the
// known two-mutation PQSolo repair.
func TestJSONRepairTrace(t *testing.T) {
	b := checkGolden(t, []string{
		"-workload", "pq-solo", "-robust", "-timeout", "8", "-retries", "2",
		"-repair", "-drops", "1", "-json",
	}, 0, "pqsolo_repair.json")
	var v jsonVerdict
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatal(err)
	}
	if v.Repair == nil || !v.Repair.Repaired {
		t.Fatalf("repair trace missing or not repaired: %+v", v.Repair)
	}
	if len(v.Repair.Mutations) != 2 || len(v.Repair.Iterations) == 0 {
		t.Fatalf("unexpected trace: mutations=%v iterations=%d", v.Repair.Mutations, len(v.Repair.Iterations))
	}
	if v.Verify == nil || !v.Verify.Clean {
		t.Fatalf("post-repair verdict not clean: %+v", v.Verify)
	}
}

// TestExitCodes pins the CLI contract scripts rely on.
func TestExitCodes(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-workload", "pq-solo", "-drops", "1", "-json"}, &out, &errb); code != 1 {
		t.Fatalf("violations with -expect none: exit %d, want 1", code)
	}
	out.Reset()
	if code := run([]string{"-workload", "nope"}, &out, &errb); code != 2 {
		t.Fatalf("unknown workload: exit %d, want 2", code)
	}
	if code := run([]string{"-expect", "maybe"}, &out, &errb); code != 2 {
		t.Fatalf("bad -expect: exit %d, want 2", code)
	}
	// A drop budget outside the checker's 16 bits once wrapped and
	// checked the fault-free space: -drops 65536 read 178 clean states.
	for _, drops := range []string{"65536", "-1"} {
		errb.Reset()
		if code := run([]string{"-drops", drops}, &out, &errb); code != 2 || !strings.Contains(errb.String(), "drop budget "+drops+" is outside 0 to 32767") {
			t.Fatalf("-drops %s: exit %d, stderr %q; want 2 with a refusal", drops, code, errb.String())
		}
	}
}
