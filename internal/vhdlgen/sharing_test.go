package vhdlgen

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/fault"
	"repro/internal/protogen"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/verify"
	"repro/internal/workloads"
)

// refinedInput is a refined system with its buses (the first is the
// one a fault campaign targets) and the abort counters its refinement
// added.
type refinedInput struct {
	name   string
	sys    *spec.System
	buses  []*spec.Bus
	aborts []string
}

// sharingInputs refines every digest variant of PQ and PQSolo, the 6x6
// mesh at width 1 and difftest seeds 1 to 10.
func sharingInputs(t *testing.T) []refinedInput {
	var out []refinedInput
	for _, solo := range []bool{false, true} {
		for _, v := range digestVariants {
			sys, bus := workloads.PQ()
			name := "pq/" + v.name
			if solo {
				sys, bus = workloads.PQSolo()
				name = "pqsolo/" + v.name
			}
			ref, err := protogen.Generate(sys, bus, v.cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			out = append(out, refinedInput{name, sys, []*spec.Bus{bus}, ref.AbortKeys()})
		}
	}
	synth := func(name string, sys *spec.System, opts core.Options) {
		rep, err := core.Synthesize(sys, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		in := refinedInput{name: name, sys: sys}
		for _, br := range rep.Buses {
			in.buses = append(in.buses, br.Bus)
			in.aborts = append(in.aborts, br.Ref.AbortKeys()...)
		}
		out = append(out, in)
	}
	synth("mesh-6/w1", workloads.Mesh(6), core.Options{Workers: 1, ForceWidth: 1})
	for seed := int64(1); seed <= 10; seed++ {
		synth(fmt.Sprintf("difftest/%d", seed), difftest.Generate(seed, difftest.DefaultGenConfig()), difftestOptions(seed))
	}
	return out
}

// TestSharedNodesSurviveConsumers checks the contract that lets a
// refinement place one node at many positions: no consumer of a refined
// system changes a node. Each input's listing is rendered, then the
// system is cloned, hashed twice, validated, simulated, model-checked
// within a state bound and put through a 20-run fault campaign; the
// clone and the system must then both render the first listing's
// bytes. A pass that edits a shared node in place changes every
// position at once and fails here.
func TestSharedNodesSurviveConsumers(t *testing.T) {
	for _, in := range sharingInputs(t) {
		t.Run(in.name, func(t *testing.T) {
			before := Emit(in.sys)

			clone := spec.Clone(in.sys)
			if h1, h2 := spec.Hash(in.sys), spec.Hash(in.sys); h1 != h2 {
				t.Errorf("Hash changed between calls: %v then %v", h1, h2)
			}
			if errs := in.sys.Validate(); len(errs) > 0 {
				t.Fatalf("Validate: %v", errs[0])
			}
			eng, err := sim.NewEngine(in.sys)
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			// Accessors without arbitration can collide on the bus (the
			// mesh, difftest seeds 4 and 7), so a run may fail; its
			// outcome is not under test here. A campaign needs a clean
			// golden run.
			_, runErr := eng.Run(sim.Config{MaxClocks: 200_000})
			if mesh := in.name == "mesh-6/w1"; !mesh { // the mesh's 108 processes exceed the checker's limit
				if _, err := verify.Check(in.sys, verify.Config{MaxStates: 2000, Workers: 1, AbortVars: in.aborts}); err != nil {
					t.Fatalf("Check: %v", err)
				}
				if runErr == nil {
					if _, err := fault.Campaign(in.sys, in.buses[0], fault.Config{Runs: 20, Seed: 1, Workers: 1, AbortVars: in.aborts}); err != nil {
						t.Fatalf("Campaign: %v", err)
					}
				}
			}

			if after := Emit(in.sys); after != before {
				t.Errorf("listing changed after the consumers ran (%d bytes, was %d)", len(after), len(before))
			}
			if got := Emit(clone); got != before {
				t.Errorf("clone renders %d bytes that differ from the original's %d", len(got), len(before))
			}
		})
	}
}

// TestWordTransfersMatchRefinement: the word-transfer count that
// bounds a synthesis before refinement (protogen.WordTransfers) must be
// the number of words the refinement drives onto the bus: each transfer
// is one assignment to a bus's DATA lines, in the accessor's procedure
// for a write word, an address word or a read request, and in the
// server's for a read's data word. The inputs cover writes, reads,
// array accesses, every digest variant and both handshakes, so a change
// to how any of them unrolls that the count does not follow fails here.
func TestWordTransfersMatchRefinement(t *testing.T) {
	for _, in := range sharingInputs(t) {
		want := 0
		data := make(map[*spec.Variable]bool)
		for _, bus := range in.buses {
			want += protogen.WordTransfers(bus)
			data[bus.Signal] = true
		}
		got := 0
		count := func(s spec.Stmt) bool {
			if a, ok := s.(*spec.Assign); ok {
				if f, ok := a.LHS.(*spec.FieldRef); ok && f.Field == "DATA" {
					if r, ok := f.X.(*spec.VarRef); ok && data[r.Var] {
						got++
					}
				}
			}
			return true
		}
		for _, b := range in.sys.Behaviors() {
			spec.WalkStmts(b.Body, count)
			for _, p := range b.Procedures {
				spec.WalkStmts(p.Body, count)
			}
		}
		if got != want {
			t.Errorf("%s: the refinement drives %d words onto DATA, WordTransfers counts %d", in.name, got, want)
		}
	}
}
