// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations of the design choices called out in
// DESIGN.md. Key reproduced values are attached to the benchmark output
// as custom metrics, so a -bench run doubles as a reproduction report:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/busgen"
	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/experiments"
	"repro/internal/explore"
	"repro/internal/flc"
	"repro/internal/hdl"
	"repro/internal/protogen"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/workloads"
)

// BenchmarkFig2ChannelMerge regenerates Fig. 2: merging channels A
// (4 b/s) and B (12 b/s) into a 16 b/s bus that preserves the makespan.
func BenchmarkFig2ChannelMerge(b *testing.B) {
	var r *experiments.Fig2Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig2()
	}
	if !r.MakespanPreserved {
		b.Fatal("makespan not preserved")
	}
	b.ReportMetric(r.BusRate, "busRate(b/s)")
	b.ReportMetric(r.Rates["A"], "aveRateA(b/s)")
	b.ReportMetric(r.Rates["B"], "aveRateB(b/s)")
}

// BenchmarkFig7PerfVsWidth regenerates Fig. 7: the estimator sweep of
// EVAL_R3 and CONV_R2 execution time over bus widths 1..24.
func BenchmarkFig7PerfVsWidth(b *testing.B) {
	var r *experiments.Fig7Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig7()
	}
	b.ReportMetric(float64(r.Points[0].EvalR3), "evalR3@w1(clk)")
	b.ReportMetric(float64(r.Points[22].EvalR3), "evalR3@w23(clk)")
	b.ReportMetric(float64(r.Points[0].ConvR2), "convR2@w1(clk)")
	b.ReportMetric(float64(r.Points[22].ConvR2), "convR2@w23(clk)")
	b.ReportMetric(float64(r.MinWidthMeetingConstraint), "minWidthFor2000clk")
}

// BenchmarkFig7SimCrossCheck validates the Fig. 7 shape on the
// cycle-counting simulator (bus B protocol-generated per width).
func BenchmarkFig7SimCrossCheck(b *testing.B) {
	var points []experiments.Fig7SimPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.Fig7SimCheck([]int{1, 8, 23})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(points[0].Clocks), "simClocks@w1")
	b.ReportMetric(float64(points[1].Clocks), "simClocks@w8")
	b.ReportMetric(float64(points[2].Clocks), "simClocks@w23")
}

// BenchmarkFig8BusGeneration regenerates Fig. 8: the three constrained
// designs selecting widths 20, 18 and 16.
func BenchmarkFig8BusGeneration(b *testing.B) {
	var r *experiments.Fig8Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Fig8()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.Rows[0].Width), "widthA(pins)")
	b.ReportMetric(float64(r.Rows[1].Width), "widthB(pins)")
	b.ReportMetric(float64(r.Rows[2].Width), "widthC(pins)")
	b.ReportMetric(r.Rows[0].ReductionPct, "reductionA(%)")
	b.ReportMetric(r.Rows[2].ReductionPct, "reductionC(%)")
}

// BenchmarkProtocolGeneration measures protocol generation on the
// Fig. 3 walkthrough system (four channels, 8-bit handshake bus).
func BenchmarkProtocolGeneration(b *testing.B) {
	b.ReportAllocs()
	var ref *protogen.Refinement
	for i := 0; i < b.N; i++ {
		sys, bus := workloads.PQ()
		var err error
		ref, err = protogen.Generate(sys, bus, protogen.Config{Protocol: spec.FullHandshake})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(ref.Servers)), "varProcesses")
	b.ReportMetric(float64(ref.RewrittenStmts), "rewrittenStmts")
}

// BenchmarkRefinedSimulation measures simulation of the refined Fig. 3
// system (the paper's simulatability claim, exercised).
func BenchmarkRefinedSimulation(b *testing.B) {
	b.ReportAllocs()
	var res *sim.Result
	for i := 0; i < b.N; i++ {
		sys, bus := workloads.PQ()
		if _, err := protogen.Generate(sys, bus, protogen.Config{Protocol: spec.FullHandshake}); err != nil {
			b.Fatal(err)
		}
		s, err := sim.NewEngine(sys)
		if err != nil {
			b.Fatal(err)
		}
		res, err = s.Run(sim.Config{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Clocks), "simClocks")
	b.ReportMetric(float64(res.Deltas), "deltaCycles")
}

// BenchmarkProtocolDelayModels is the protocol ablation: estimated
// CONV_R2 execution time at width 8 under each selectable protocol.
func BenchmarkProtocolDelayModels(b *testing.B) {
	f := flc.New(flc.DefaultConfig())
	est := estimate.New([]*spec.Channel{f.Ch1, f.Ch2})
	var full, half, fixed int64
	for i := 0; i < b.N; i++ {
		full = est.ExecTime(f.ConvR2, 8, spec.FullHandshake)
		half = est.ExecTime(f.ConvR2, 8, spec.HalfHandshake)
		fixed = est.ExecTime(f.ConvR2, 8, spec.FixedDelay)
	}
	b.ReportMetric(float64(full), "fullHS(clk)")
	b.ReportMetric(float64(half), "halfHS(clk)")
	b.ReportMetric(float64(fixed), "fixedDelay(clk)")
}

// BenchmarkCostFunctionAblation compares the paper's squared-violation
// penalty against a linear penalty on design B's constraint set (with
// rate quantization off, the shapes differ: 18 vs 19 pins).
func BenchmarkCostFunctionAblation(b *testing.B) {
	var wSq, wLin int
	for i := 0; i < b.N; i++ {
		f := flc.New(flc.DefaultConfig())
		est := estimate.New([]*spec.Channel{f.Ch1, f.Ch2})
		cfg := busgen.DefaultConfig()
		cfg.QuantizeRates = false
		cfg.Constraints = experiments.Fig8Designs()["B"]
		rSq, err := busgen.Generate([]*spec.Channel{f.Ch1, f.Ch2}, est, cfg)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Penalty = busgen.LinearPenalty
		rLin, err := busgen.Generate([]*spec.Channel{f.Ch1, f.Ch2}, est, cfg)
		if err != nil {
			b.Fatal(err)
		}
		wSq, wLin = rSq.Width, rLin.Width
	}
	b.ReportMetric(float64(wSq), "widthSquared(pins)")
	b.ReportMetric(float64(wLin), "widthLinear(pins)")
}

// BenchmarkEstimator measures the statement-level performance estimator
// on the full FLC behavior set. CompTime memoizes, so each iteration
// invalidates first: the number reported is the cost of the cold
// statement-tree walks, the quantity a sweep pays exactly once.
func BenchmarkEstimator(b *testing.B) {
	f := flc.New(flc.DefaultConfig())
	est := estimate.New([]*spec.Channel{f.Ch1, f.Ch2})
	b.ReportAllocs()
	var total int64
	for i := 0; i < b.N; i++ {
		est.Invalidate()
		total = 0
		for _, beh := range f.Sys.Behaviors() {
			total += est.CompTime(beh)
		}
	}
	b.ReportMetric(float64(total), "flcCompClocks")
}

// BenchmarkSweepWide measures the exploration engine end to end —
// estimator construction plus a full width x protocol sweep — on the
// large Mesh workload (25 behaviors, 50 channels), serial path.
func BenchmarkSweepWide(b *testing.B) {
	sys := workloads.Mesh(5)
	b.ReportAllocs()
	var points int
	for i := 0; i < b.N; i++ {
		est := estimate.New(sys.Channels)
		sp, err := explore.Sweep(sys.Channels, est, explore.Config{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		points = len(sp.Points)
	}
	b.ReportMetric(float64(points), "points")
}

// BenchmarkSweepParallel is BenchmarkSweepWide with the sweep fanned
// across GOMAXPROCS workers.
func BenchmarkSweepParallel(b *testing.B) {
	sys := workloads.Mesh(5)
	b.ReportAllocs()
	var points int
	for i := 0; i < b.N; i++ {
		est := estimate.New(sys.Channels)
		sp, err := explore.Sweep(sys.Channels, est, explore.Config{})
		if err != nil {
			b.Fatal(err)
		}
		points = len(sp.Points)
	}
	b.ReportMetric(float64(points), "points")
}

// BenchmarkHDLParse measures the front end (lex, parse, elaborate) on
// every testdata/*.sys plus printed mesh-6, at 24 KB the largest spec
// the end-to-end benchmark sends; MB/s counts source bytes.
func BenchmarkHDLParse(b *testing.B) {
	srcs := frontEndCorpus(b)
	n := 0
	for _, src := range srcs {
		n += len(src)
	}
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range srcs {
			if _, err := hdl.Parse(src); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// frontEndCorpus returns the text of every testdata/*.sys and of
// printed mesh-6.
func frontEndCorpus(b *testing.B) []string {
	files, err := filepath.Glob("testdata/*.sys")
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
	return append(srcs, mesh)
}

// BenchmarkFullSynthesisFLC measures the complete flow — channel
// derivation through protocol generation — on the FLC under design-A
// constraints.
func BenchmarkFullSynthesisFLC(b *testing.B) {
	b.ReportAllocs()
	var width int
	for i := 0; i < b.N; i++ {
		f := flc.New(flc.DefaultConfig())
		cfg := busgen.DefaultConfig()
		cfg.Constraints = experiments.Fig8Designs()["A"]
		est := estimate.New([]*spec.Channel{f.Ch1, f.Ch2})
		gen, err := busgen.Generate([]*spec.Channel{f.Ch1, f.Ch2}, est, cfg)
		if err != nil {
			b.Fatal(err)
		}
		bus := f.BusB(gen.Width)
		if _, err := protogen.Generate(f.Sys, bus, protogen.Config{Protocol: spec.FullHandshake}); err != nil {
			b.Fatal(err)
		}
		width = gen.Width
	}
	b.ReportMetric(float64(width), "selectedWidth(pins)")
}

// BenchmarkSynthesizedEthernet measures end-to-end synthesis plus
// simulation of the Ethernet coprocessor workload.
func BenchmarkSynthesizedEthernet(b *testing.B) {
	b.ReportAllocs()
	var clocks int64
	for i := 0; i < b.N; i++ {
		sys := workloads.Ethernet(4)
		if _, err := core.Synthesize(sys, core.Options{}); err != nil {
			b.Fatal(err)
		}
		s, err := sim.NewEngine(sys)
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.Run(sim.Config{})
		if err != nil {
			b.Fatal(err)
		}
		clocks = res.Clocks
	}
	b.ReportMetric(float64(clocks), "simClocks")
}

// BenchmarkBusInterfaceAreaVsWidth is the area-side ablation: a
// narrower bus means more word states in the generated transfer FSMs
// (more interface area on the accessor chip), while a wider bus means
// more wire drivers. Reported for the Fig. 3 system at widths 2 and 16.
func BenchmarkBusInterfaceAreaVsWidth(b *testing.B) {
	model := estimate.DefaultAreaModel()
	measure := func(width int) (busIf, drivers float64) {
		sys, bus := workloads.PQ()
		bus.Width = width
		if _, err := protogen.Generate(sys, bus, protogen.Config{Protocol: spec.FullHandshake}); err != nil {
			b.Fatal(err)
		}
		p := sys.FindBehavior("P")
		return model.BehaviorArea(p).BusIf, model.BusArea(bus)
	}
	var fsm2, drv2, fsm16, drv16 float64
	for i := 0; i < b.N; i++ {
		fsm2, drv2 = measure(2)
		fsm16, drv16 = measure(16)
	}
	if fsm2 <= fsm16 || drv16 <= drv2 {
		b.Fatal("area trade-off inverted")
	}
	b.ReportMetric(fsm2, "xferFSM@w2(gates)")
	b.ReportMetric(fsm16, "xferFSM@w16(gates)")
	b.ReportMetric(drv2, "drivers@w2(gates)")
	b.ReportMetric(drv16, "drivers@w16(gates)")
}
