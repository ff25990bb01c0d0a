package spec_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/hdl"
	"repro/internal/spec"
	"repro/internal/workloads"
)

// BenchmarkHash hashes every testdata/*.sys and printed mesh-6, parsed
// once up front: the systems whose digests key ifsynd's cache. MB/s
// counts the source bytes the systems were parsed from.
func BenchmarkHash(b *testing.B) {
	files, err := filepath.Glob("../../testdata/*.sys")
	if err != nil || len(files) == 0 {
		b.Fatalf("testdata: %v (%d files)", err, len(files))
	}
	var srcs []string
	for _, f := range files {
		text, err := os.ReadFile(f)
		if err != nil {
			b.Fatal(err)
		}
		srcs = append(srcs, string(text))
	}
	mesh, err := hdl.Print(workloads.Mesh(6))
	if err != nil {
		b.Fatal(err)
	}
	srcs = append(srcs, mesh)
	var systems []*spec.System
	n := 0
	for _, src := range srcs {
		systems = append(systems, parse(b, src))
		n += len(src)
	}
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sys := range systems {
			spec.Hash(sys)
		}
	}
}

// TestHashAllocs bounds the allocations of one Hash of testdata/pq.sys:
// the hasher, its frame buffer, sub-digest stack and identity maps, 9 in
// all. Writing each tag, number and string through hash.Hash cost 272.
func TestHashAllocs(t *testing.T) {
	b, err := os.ReadFile("../../testdata/pq.sys")
	if err != nil {
		t.Fatal(err)
	}
	sys := parse(t, string(b))
	if n := testing.AllocsPerRun(20, func() { spec.Hash(sys) }); n > 10 {
		t.Errorf("Hash of pq.sys: %.0f allocs, want at most 10", n)
	}
}

func parse(tb testing.TB, src string) *spec.System {
	tb.Helper()
	sys, err := hdl.Parse(src)
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}
