package verify

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/protogen"
	"repro/internal/spec"
)

// Two reference workloads, the shapes of EXPERIMENTS.md's
// baseline-drop1 and robust-drop1-100k scenarios. Synthesis runs
// outside the timer — the benchmarks measure Check, and report the
// checker's two budget currencies directly: explored states per second
// of wall time and heap bytes allocated per stored state.

// BenchmarkVerifyBaseline checks the unhardened full handshake under a
// one-drop budget (the EXPERIMENTS.md 369-state row).
func BenchmarkVerifyBaseline(b *testing.B) {
	benchVerify(b, false, Config{MaxDrops: 1})
}

// BenchmarkVerifyRobust checks the hardened protocol under a one-drop
// budget with a 50k-state bound — the state-heavy workload the codec,
// store and row work is aimed at.
func BenchmarkVerifyRobust(b *testing.B) {
	benchVerify(b, true, Config{MaxDrops: 1, MaxStates: 50_000})
}

func benchVerify(b *testing.B, robust bool, vcfg Config) {
	b.ReportAllocs()
	var states uint64
	var heap uint64
	var wall time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := vcfg
		var sys *spec.System
		if robust {
			s, ref := refinePQ(b, robustCfg(false))
			sys, cfg.AbortVars = s, ref.AbortKeys()
		} else {
			sys, _ = refinePQ(b, protogen.Config{Protocol: spec.FullHandshake})
		}
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		b.StartTimer()
		start := time.Now()
		rep, err := Check(sys, cfg)
		wall += time.Since(start)
		b.StopTimer()
		runtime.ReadMemStats(&m1)
		if err != nil {
			b.Fatal(err)
		}
		if rep.States == 0 {
			b.Fatal("empty exploration")
		}
		states += uint64(rep.States)
		heap += m1.TotalAlloc - m0.TotalAlloc
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(states)/wall.Seconds(), "states/s")
	b.ReportMetric(float64(heap)/float64(states), "B/state")
}
