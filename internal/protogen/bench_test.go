package protogen

import (
	"testing"

	"repro/internal/spec"
	"repro/internal/workloads"
)

// allocConfigs are the PQ refinements whose allocations are pinned.
var allocConfigs = []struct {
	name string
	cfg  Config
}{
	{"full", Config{Protocol: spec.FullHandshake}},
	{"robust", Config{Protocol: spec.FullHandshake, Robust: true}},
	{"robust-parity", Config{Protocol: spec.FullHandshake, Robust: true, Parity: true}},
	{"robust-parity-arbitrated", Config{Protocol: spec.FullHandshake, Robust: true, Parity: true, Arbitrate: true}},
}

// TestGenerateAllocs bounds the objects one Generate of PQ allocates,
// net of building PQ itself. A refinement builds the nodes it repeats
// (bus fields, literals, handshake conditions, slice bounds, leaf
// statements and each procedure's word-invariant statements) once and
// shares them: 338, 658, 994 and 1,086 objects, capped here with about
// 10% headroom. Building every node per use, as protogen did before,
// cost 981, 1,820, 3,349 and 3,619.
func TestGenerateAllocs(t *testing.T) {
	want := map[string]float64{
		"full":                     375,
		"robust":                   720,
		"robust-parity":            1090,
		"robust-parity-arbitrated": 1190,
	}
	build := testing.AllocsPerRun(20, func() { workloads.PQ() })
	for _, c := range allocConfigs {
		n := testing.AllocsPerRun(20, func() {
			sys, bus := workloads.PQ()
			if _, err := Generate(sys, bus, c.cfg); err != nil {
				t.Fatal(err)
			}
		}) - build
		if n > want[c.name] {
			t.Errorf("Generate of PQ (%s): %.0f allocs, want at most %.0f", c.name, n, want[c.name])
		}
	}
}

// refSink keeps the benchmarked call's result live.
var refSink *Refinement

// meshBus returns the 6x6 mesh with all 72 channels on one 1-bit bus,
// which unrolls 1,584 word transfers.
func meshBus() (*spec.System, *spec.Bus) {
	sys := workloads.Mesh(6)
	bus := &spec.Bus{Name: "B", Channels: sys.Channels, Width: 1}
	sys.Buses = append(sys.Buses, bus)
	return sys, bus
}

// BenchmarkGenerate refines the PQ variants and the 6x6 mesh at width
// 1. Each iteration refines a fresh system; building it is not timed.
func BenchmarkGenerate(b *testing.B) {
	type genCase struct {
		name  string
		build func() (*spec.System, *spec.Bus)
		cfg   Config
	}
	var cases []genCase
	for _, c := range allocConfigs {
		cases = append(cases, genCase{"pq-" + c.name, workloads.PQ, c.cfg})
	}
	cases = append(cases,
		genCase{"mesh-6-w1", meshBus, Config{Protocol: spec.FullHandshake}},
		genCase{"mesh-6-w1-robust", meshBus, Config{Protocol: spec.FullHandshake, Robust: true}})
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sys, bus := c.build()
				b.StartTimer()
				ref, err := Generate(sys, bus, c.cfg)
				if err != nil {
					b.Fatal(err)
				}
				refSink = ref
			}
		})
	}
}
