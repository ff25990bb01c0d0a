package vhdlgen

import (
	"testing"

	"repro/internal/core"
	"repro/internal/protogen"
	"repro/internal/spec"
	"repro/internal/workloads"
)

// emitSink keeps the benchmarked call's result live.
var emitSink string

// BenchmarkEmit renders refined PQ, robust+parity PQ and Mesh-6. The
// listing's size is the benchmark's byte count, so MB/s is rendering
// throughput.
func BenchmarkEmit(b *testing.B) {
	for _, c := range []struct {
		name string
		sys  *spec.System
	}{
		{"pq", refinedPQ(b, false, protogen.Config{Protocol: spec.FullHandshake})},
		{"pq-robust-parity", refinedPQ(b, false, protogen.Config{Protocol: spec.FullHandshake, Robust: true, Parity: true})},
		{"mesh-6", synthesized(b, workloads.Mesh(6), core.Options{Workers: 1, ForceWidth: 8})},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(Emit(c.sys))))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				emitSink = Emit(c.sys)
			}
		})
	}
}

// TestEmitAllocs bounds the allocations of one Emit of refined robust
// PQ, a 17 KB listing: the buffer's growth steps and the returned
// string, 5 in all. Building lines through fmt and throwaway strings
// cost thousands.
func TestEmitAllocs(t *testing.T) {
	sys := refinedPQ(t, false, protogen.Config{Protocol: spec.FullHandshake, Robust: true})
	if n := testing.AllocsPerRun(20, func() { Emit(sys) }); n > 8 {
		t.Errorf("Emit of refined robust PQ: %.0f allocs, want at most 8", n)
	}
}
