package difftest

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/spec"
)

func simulate(t *testing.T, sys *spec.System, seed int64) *sim.Result {
	t.Helper()
	s, err := sim.NewEngine(sys)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	res, err := s.Run(sim.Config{MaxClocks: 2_000_000})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return res
}

// TestDifferentialRandomSystems generates random systems and checks
// that the fully synthesized (bus + protocol + arbitration) refinement
// computes exactly the same final memory state as the abstract system,
// across widths chosen by bus generation.
func TestDifferentialRandomSystems(t *testing.T) {
	cfg := DefaultGenConfig()
	for seed := int64(1); seed <= 40; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			abstract := Generate(seed, cfg)
			if errs := abstract.Validate(); len(errs) > 0 {
				t.Fatalf("generator produced invalid system: %v", errs[0])
			}
			base := simulate(t, abstract, seed)

			refined := Generate(seed, cfg)
			// RateFeasible grouping: groups too rate-hungry for one
			// bus are split (the paper's remedy for infeasibility).
			rep, err := core.Synthesize(refined, core.Options{
				Arbitrate: true,
				Grouping:  partition.RateFeasible,
			})
			if err != nil {
				t.Fatalf("synthesize: %v", err)
			}
			if len(rep.Buses) == 0 {
				t.Fatal("no buses synthesized")
			}
			got := simulate(t, refined, seed)

			for key, want := range base.Finals {
				if gotV, ok := got.Finals[key]; !ok || !gotV.Equal(want) {
					t.Errorf("final %s differs:\n abstract: %s\n refined:  %s", key, want, got.Finals[key])
				}
			}
		})
	}
}

// TestDifferentialForcedNarrowWidth re-runs a handful of seeds with a
// deliberately hostile 1-bit bus: every message needs the maximum
// number of word handshakes.
func TestDifferentialForcedNarrowWidth(t *testing.T) {
	cfg := DefaultGenConfig()
	for seed := int64(1); seed <= 8; seed++ {
		abstract := Generate(seed, cfg)
		base := simulate(t, abstract, seed)

		refined := Generate(seed, cfg)
		if _, err := core.Synthesize(refined, core.Options{Arbitrate: true, ForceWidth: 1}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got := simulate(t, refined, seed)
		for key, want := range base.Finals {
			if gotV, ok := got.Finals[key]; !ok || !gotV.Equal(want) {
				t.Errorf("seed %d: final %s differs (width 1)", seed, key)
			}
		}
	}
}

// TestGeneratorDeterministic pins the generator: same seed, same
// system.
func TestGeneratorDeterministic(t *testing.T) {
	a := Generate(7, DefaultGenConfig())
	b := Generate(7, DefaultGenConfig())
	if len(a.Behaviors()) != len(b.Behaviors()) {
		t.Fatal("behavior counts differ")
	}
	ra := simulate(t, a, 7)
	rb := simulate(t, b, 7)
	for key, want := range ra.Finals {
		if !rb.Finals[key].Equal(want) {
			t.Fatalf("nondeterministic generator at %s", key)
		}
	}
}
