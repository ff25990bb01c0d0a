// FLC reproduces the paper's headline case study interactively: the
// Matsushita fuzzy logic controller is partitioned onto two chips
// (Fig. 6), the effect of bus width on EVAL_R3 and CONV_R2 is swept
// (Fig. 7), a constrained design is selected by bus generation (Fig. 8
// design A), the protocol is generated for the chosen bus, and the
// refined controller is simulated against the abstract one to confirm
// the same control output.
//
// Run with: go run ./examples/flc [-temp N] [-hum N]
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/busgen"
	"repro/internal/estimate"
	"repro/internal/flc"
	"repro/internal/protogen"
	"repro/internal/sim"
	"repro/internal/spec"
)

func main() {
	temp := flag.Int("temp", 80, "sensed temperature (0..127)")
	hum := flag.Int("hum", 40, "sensed humidity (0..127)")
	flag.Parse()
	cfg := flc.Config{Temperature: *temp, Humidity: *hum}

	// Abstract (pre-synthesis) run for reference.
	abstract := flc.New(cfg)
	base := run(abstract.Sys, nil)
	fmt.Printf("abstract FLC: centroid=%s control=%s\n\n",
		base.Final("chip1", "centroid"), base.Final("chip1", "control"))

	// Fig. 7-style sweep: how bus width changes the two processes.
	f := flc.New(cfg)
	est := estimate.New([]*spec.Channel{f.Ch1, f.Ch2})
	fmt.Println("bus-width sweep (estimated clocks, full handshake):")
	fmt.Printf("  %5s  %10s  %10s\n", "width", "EVAL_R3", "CONV_R2")
	for _, w := range []int{1, 2, 4, 8, 16, 23} {
		fmt.Printf("  %5d  %10d  %10d\n", w,
			est.ExecTime(f.EvalR3, w, spec.FullHandshake),
			est.ExecTime(f.ConvR2, w, spec.FullHandshake))
	}

	// Fig. 8 design A: minimum peak rate of 10 bits/clock on ch2.
	bcfg := busgen.DefaultConfig()
	bcfg.Constraints = []busgen.Constraint{
		{Kind: busgen.MinPeakRate, Channel: "ch2", Value: 10, Weight: 10},
	}
	gen, err := busgen.Generate([]*spec.Channel{f.Ch1, f.Ch2}, est, bcfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbus generation under design-A constraints: width %d pins, rate %g bits/clock, "+
		"interconnect reduction %.0f %%\n", gen.Width, gen.BusRate, gen.InterconnectReduction*100)

	// Protocol generation for the selected bus, then simulation.
	bus := f.BusB(gen.Width)
	if _, err := protogen.Generate(f.Sys, bus, protogen.Config{Protocol: spec.FullHandshake}); err != nil {
		log.Fatal(err)
	}
	refined := run(f.Sys, nil)
	fmt.Printf("\nrefined FLC (bus B at %d pins): centroid=%s control=%s, %d clocks\n",
		gen.Width, refined.Final("chip1", "centroid"), refined.Final("chip1", "control"), refined.Clocks)

	if !base.Final("chip1", "control").Equal(refined.Final("chip1", "control")) {
		log.Fatal("FAIL: refined controller output differs from the abstract one")
	}
	fmt.Println("OK: refined specification is functionally equivalent")
}

func run(sys *spec.System, cost *estimate.CostModel) *sim.Result {
	eng, err := sim.NewEngine(sys)
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.Run(sim.Config{Cost: cost})
	if err != nil {
		log.Fatal(err)
	}
	return res
}
