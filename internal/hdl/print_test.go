package hdl

import (
	"strings"
	"testing"

	"repro/internal/difftest"
	"repro/internal/protogen"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/workloads"
)

// TestPrintParseFixedPoint: printing a parsed system and re-parsing it
// must reach a fixed point (print(parse(print(x))) == print(x)).
func TestPrintParseFixedPoint(t *testing.T) {
	for _, file := range []string{"pq.sys", "dma.sys"} {
		sys, err := ParseFile(testdata(t, file))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		once, err := Print(sys)
		if err != nil {
			t.Fatalf("%s: print: %v", file, err)
		}
		sys2, err := Parse(once)
		if err != nil {
			t.Fatalf("%s: reparse: %v\n%s", file, err, once)
		}
		twice, err := Print(sys2)
		if err != nil {
			t.Fatalf("%s: reprint: %v", file, err)
		}
		if once != twice {
			t.Errorf("%s: print not a fixed point:\n--- once ---\n%s\n--- twice ---\n%s", file, once, twice)
		}
	}
}

// TestPrintedSystemSimulatesIdentically round-trips randomly generated
// systems through the printer and parser and compares simulations —
// end-to-end verification that the textual form loses nothing.
func TestPrintedSystemSimulatesIdentically(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		orig := difftest.Generate(seed, difftest.DefaultGenConfig())
		src, err := Print(orig)
		if err != nil {
			t.Fatalf("seed %d: print: %v", seed, err)
		}
		reparsed, err := Parse(src)
		if err != nil {
			t.Fatalf("seed %d: parse: %v\n%s", seed, err, src)
		}

		run := func(sys *spec.System) *sim.Result {
			s, err := sim.NewEngine(sys)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			res, err := s.Run(sim.Config{})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			return res
		}
		a := run(orig)
		b := run(reparsed)
		if len(a.Finals) != len(b.Finals) {
			t.Fatalf("seed %d: final sets differ in size", seed)
		}
		for key, want := range a.Finals {
			if got, ok := b.Finals[key]; !ok || !got.Equal(want) {
				t.Errorf("seed %d: %s differs after text round trip", seed, key)
			}
		}
	}
}

// TestPrintRejectsRefinedSystems: record types and generated constructs
// are outside the input grammar.
func TestPrintRejectsRefinedSystems(t *testing.T) {
	sys, bus := workloads.PQ()
	if _, err := protogen.Generate(sys, bus, protogen.Config{Protocol: spec.FullHandshake}); err != nil {
		t.Fatal(err)
	}
	if _, err := Print(sys); err == nil {
		t.Fatal("refined system printed without error")
	}
}

func TestPrintRejectsArrayInitializers(t *testing.T) {
	sys := workloads.AnsweringMachine(1) // GREETING has an InitArray
	if _, err := Print(sys); err == nil || !strings.Contains(err.Error(), "initializer") {
		t.Fatalf("err = %v", err)
	}
}
