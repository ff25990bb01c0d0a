package fault_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/workloads"
)

// TestCampaignHistograms pins the outcome histograms of two
// 100,000-run campaigns (seed 1, robust and robust+parity PQ as
// core.Synthesize refines them, on its 8-bit bus). They are the counts
// recorded when the pooled campaign engine replaced the classic kernel
// (EXPERIMENTS.md, "Recorded history of the retired harness"), so
// every later change to the simulator or the campaign must reproduce
// them run for run.
func TestCampaignHistograms(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-run campaigns")
	}
	for _, c := range []struct {
		name   string
		parity bool
		want   [4]int // survived, aborted-cleanly, corrupted, deadlocked
	}{
		{"robust", false, [4]int{91_080, 4_120, 4_800, 0}},
		{"robust+parity", true, [4]int{94_253, 3_634, 2_113, 0}},
	} {
		t.Run(c.name, func(t *testing.T) {
			sys, _ := workloads.PQ()
			rep, err := core.Synthesize(sys, core.Options{Robust: true, Parity: c.parity})
			if err != nil {
				t.Fatal(err)
			}
			br := rep.Buses[0]
			if br.Bus.Width != 8 {
				t.Fatalf("bus width %d, want 8", br.Bus.Width)
			}
			frep, err := fault.Campaign(sys, br.Bus, fault.Config{
				Runs: 100_000, Seed: 1, AbortVars: br.Ref.AbortKeys(),
			})
			if err != nil {
				t.Fatal(err)
			}
			got := [4]int{
				frep.Totals[fault.Survived], frep.Totals[fault.AbortedCleanly],
				frep.Totals[fault.Corrupted], frep.Totals[fault.Deadlocked],
			}
			if got != c.want {
				t.Errorf("survived/aborted-cleanly/corrupted/deadlocked = %v, want %v", got, c.want)
			}
		})
	}
}
