package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The reference box is a virtual machine with 2 vCPUs on a shared host,
// and how fast they run moves with what the host's other tenants run,
// over seconds and over minutes: within a quarter of an hour,
// serve-warm's median latency read 0.16 ms in some runs and 0.23 ms in
// others. A run sees only its own stretch of that drift.
//
// So the benchmark measures the host's speed next to the program and
// scales every time it reports to a fixed reference speed. A speed probe
// runs two kernels on nproc goroutines. They live here, so they are the
// same code on both sides of any comparison:
//
//   - mem: read-modify-writes at pseudo-random places in a 2 MiB buffer
//     per goroutine, which waits on the cache hierarchy;
//   - map: inserts into and lookups in a Go map of 8192 entries, the
//     runtime code the program's dedup tables and symbol maps lean on.
//
// The speed index is the geometric mean of the kernels' rates per
// goroutine relative to their nominal rates, so 1 is the reference speed
// and 0.8 a host running 20% slower. A timed op's scaled time is its
// time times the index the probe measured last before it. In a trial of
// eight seeds per workload in a noisy hour (10 s runs), the median
// latency and throughput spread (IQR over median) by 16–27% unscaled and
// by 2–11% when scaled, offline, by these two kernels' index.
//
// The probe first collects the garbage, so no collection cycle runs
// beside it, and it allocates nothing, so what the program allocates
// cannot slow it.

// kernels are the probe's kernels. nominal is a kernel's rate per
// goroutine, in batches per second, at the reference speed: the rates
// that made the median index over eight runs of each workload on the
// reference box 1. They are fixed: changing them rescales every time
// the benchmark reports.
var kernels = []struct {
	nominal float64
	batch   func(p *speedProbe, g int, x uint64) uint64
}{
	{24800, func(p *speedProbe, g int, x uint64) uint64 { return memBatch(p.bufs[g], x) }},
	{14900, func(p *speedProbe, g int, x uint64) uint64 { return mapBatch(p.maps[g], x) }},
}

// probeKernelTime is how long each kernel of one probe runs.
const probeKernelTime = 20 * time.Millisecond

// memWords is the 32-bit words of a goroutine's mem buffer (2 MiB).
const memWords = 1 << 19

type speedProbe struct {
	bufs [][]uint32
	maps []map[uint64]uint64
	// samples is every speed index measured, in order.
	samples []float64
}

// newSpeedProbe allocates the mem buffers outside the Go heap, so they
// neither raise the collector's heap goal nor get scanned.
func newSpeedProbe(nproc int) (*speedProbe, error) {
	p := &speedProbe{}
	for g := 0; g < nproc; g++ {
		b, err := syscall.Mmap(-1, 0, memWords*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return nil, fmt.Errorf("speed probe buffer: %w", err)
		}
		p.bufs = append(p.bufs, unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), memWords))
		p.maps = append(p.maps, make(map[uint64]uint64, 8192))
	}
	return p, nil
}

// bufferMiB is the probe's buffer memory, which rss_p90_mib leaves out.
func (p *speedProbe) bufferMiB() float64 {
	return float64(len(p.bufs)*memWords*4) / (1 << 20)
}

// measure runs one probe and returns its speed index.
func (p *speedProbe) measure() float64 {
	runtime.GC()
	logSum := 0.0
	for k := range kernels {
		logSum += math.Log(p.rate(k) / kernels[k].nominal)
	}
	s := math.Exp(logSum / float64(len(kernels)))
	p.samples = append(p.samples, s)
	return s
}

// rate runs kernel k on every goroutine for probeKernelTime and returns
// the batches per second per goroutine.
func (p *speedProbe) rate(k int) float64 {
	var wg sync.WaitGroup
	batches := make([]int, len(p.bufs))
	t0 := time.Now()
	for g := range p.bufs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint64(g + 1)
			for time.Since(t0) < probeKernelTime {
				x = kernels[k].batch(p, g, x)
				batches[g]++
			}
		}()
	}
	wg.Wait()
	total := 0
	for _, b := range batches {
		total += b
	}
	return float64(total) / time.Since(t0).Seconds() / float64(len(p.bufs))
}

// lcg steps a 64-bit linear congruential generator.
func lcg(x uint64) uint64 { return x*6364136223846793005 + 1442695040888963407 }

// memBatch is one batch of the mem kernel: 4096 read-modify-writes.
func memBatch(buf []uint32, x uint64) uint64 {
	for i := 0; i < 4096; i++ {
		x = lcg(x)
		j := (x >> 33) & (memWords - 1)
		v := buf[j] + uint32(x)
		buf[j] = v
		if v&3 == 0 {
			x ^= x >> 7
		}
	}
	return x
}

// mapBatch is one batch of the map kernel: the map is emptied, then
// takes 1024 inserts of keys from a range of 8192 and 1024 lookups.
// clear keeps the map's tables, so the kernel does not allocate.
func mapBatch(m map[uint64]uint64, x uint64) uint64 {
	clear(m)
	for i := 0; i < 1024; i++ {
		x = lcg(x)
		m[x>>51] += x
	}
	for i := 0; i < 1024; i++ {
		x = lcg(x)
		x += m[x>>51]
	}
	return x
}
