// Ethernet runs interface synthesis on the Ethernet network coprocessor
// workload: the receive/transmit pipeline on the protocol chip accesses
// the frame buffer and statistics registers on the memory chip over
// derived channels, which are merged into a single bus, implemented and
// simulated. The example prints the derived channels, the selected bus,
// and the coprocessor statistics before and after refinement.
//
// Run with: go run ./examples/ethernet [-frames N]
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/vhdlgen"
	"repro/internal/workloads"
)

func main() {
	frames := flag.Int("frames", 8, "number of frames on the synthetic line (1..16)")
	flag.Parse()

	// Reference run with abstract channels.
	base := run(workloads.Ethernet(*frames))

	// Synthesized run.
	sys := workloads.Ethernet(*frames)
	rep, err := core.Synthesize(sys, core.Options{Grouping: partition.SingleBus})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("derived %d channels:\n", len(rep.ChannelsDerived))
	for _, c := range rep.ChannelsDerived {
		fmt.Printf("  %-6s %s (%d bits/message)\n", c.Name, c, c.MessageBits())
	}
	fmt.Println()
	fmt.Println(vhdlgen.Summary(sys))

	refined := run(sys)
	printStats := func(tag string, res *sim.Result) {
		stats := res.Finals["chip2.STATS"].(sim.ArrayVal)
		fmt.Printf("%-10s frames=%s crcErrors=%s rejected=%s transmitted=%s txsum=%s clocks=%d\n",
			tag, stats.Elems[0], stats.Elems[1], stats.Elems[2], stats.Elems[3],
			res.Finals["chip1.txsum"], res.Clocks)
	}
	printStats("abstract:", base)
	printStats("refined:", refined)

	for _, key := range []string{"chip2.STATS", "chip2.FRAMEBUF", "chip1.txsum"} {
		if !base.Finals[key].Equal(refined.Finals[key]) {
			log.Fatalf("FAIL: %s differs after synthesis", key)
		}
	}
	fmt.Println("OK: synthesized coprocessor is functionally equivalent")
}

func run(sys *spec.System) *sim.Result {
	eng, err := sim.NewEngine(sys)
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.Run(sim.Config{})
	if err != nil {
		log.Fatal(err)
	}
	return res
}
