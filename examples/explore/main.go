// Explore demonstrates the specify-explore-refine workflow on the FLC's
// bus B: sweep every (width, protocol) candidate, print the Pareto
// frontier between pins, performance and interface area, pick the
// cheapest point satisfying a designer constraint (CONV_R2 under 2000
// clocks), refine the bus at that point, simulate the result and dump
// the bus waveforms to a VCD file for a wave viewer.
//
// Run with: go run ./examples/explore [-limit N] [-vcd out.vcd]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/estimate"
	"repro/internal/explore"
	"repro/internal/flc"
	"repro/internal/protogen"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/vcd"
)

func main() {
	limit := flag.Int64("limit", 2000, "CONV_R2 execution-time constraint in clocks")
	vcdPath := flag.String("vcd", "", "dump bus waveforms of the chosen design to this file")
	flag.Parse()

	f := flc.New(flc.DefaultConfig())
	est := estimate.New([]*spec.Channel{f.Ch1, f.Ch2})
	space, err := explore.Sweep([]*spec.Channel{f.Ch1, f.Ch2}, est, explore.Config{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Pareto frontier (pins vs worst-case clocks vs interface area):")
	fmt.Print(explore.Format(space.Pareto()))

	best, err := space.Best(map[*spec.Behavior]int64{f.ConvR2: *limit})
	if err != nil {
		log.Fatalf("no design meets CONV_R2 <= %d clocks: %v", *limit, err)
	}
	fmt.Printf("\nchosen: width %d, %s (%d pins; CONV_R2 at %d clocks, limit %d)\n",
		best.Width, best.Protocol, best.Pins, best.ExecTime[f.ConvR2], *limit)

	// Refine at the chosen point and simulate.
	bus := f.BusB(best.Width)
	if _, err := protogen.Generate(f.Sys, bus, protogen.Config{Protocol: best.Protocol}); err != nil {
		log.Fatal(err)
	}
	cfg := sim.Config{}
	var w *vcd.Writer
	if *vcdPath != "" {
		file, err := os.Create(*vcdPath)
		if err != nil {
			log.Fatal(err)
		}
		defer file.Close()
		w, err = vcd.NewWriter(file, f.Sys)
		if err != nil {
			log.Fatal(err)
		}
		cfg.OnEvent = w.OnEvent
	}
	eng, err := sim.NewEngine(f.Sys)
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if w != nil {
		if err := w.Close(res.Clocks); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("waveforms written to %s\n", *vcdPath)
	}
	fmt.Printf("refined FLC simulated: %d clocks, control output %s\n",
		res.Clocks, res.Final("chip1", "control"))
}
