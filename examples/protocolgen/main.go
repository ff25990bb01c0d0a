// Protocolgen walks through Section 4 of the paper on its own example
// (Figs. 3-5): behaviors P and Q accessing variables X and MEM over
// four channels merged into an 8-bit handshake bus. The program prints
// the artifacts the paper's figures show — the HandShakeBus record, the
// generated SendCH0/ReceiveCH0 procedures, the rewritten behaviors and
// the generated variable processes — then simulates the refined system
// and verifies it computes X = 32, MEM(5) = 39, MEM(60) = 9.
//
// Run with: go run ./examples/protocolgen
package main

import (
	"fmt"
	"log"

	"repro/internal/protogen"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/vhdlgen"
	"repro/internal/workloads"
)

func main() {
	sys, bus := workloads.PQ()

	fmt.Println("=== channels grouped into bus B (Fig. 3) ===")
	for _, c := range bus.Channels {
		fmt.Printf("  %s  (%d data + %d addr bits per message)\n", c, c.DataBits(), c.AddrBits())
	}

	ref, err := protogen.Generate(sys, bus, protogen.Config{Protocol: spec.FullHandshake})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n=== bus declaration and CH0 procedures (Fig. 4) ===")
	fmt.Printf("IDs: %d lines for %d channels; ", bus.IDBits(), len(bus.Channels))
	for _, c := range bus.Channels {
		fmt.Printf("%s=%q ", c.Name, c.ID.String())
	}
	fmt.Print("\n\n")
	fmt.Println(vhdlgen.EmitProcedure(ref.AccessorProcs[bus.Channels[0]]))

	fmt.Println("=== refined behaviors and variable processes (Fig. 5) ===")
	for _, name := range []string{"P", "Q", "Xproc", "MEMproc"} {
		fmt.Println(vhdlgen.EmitBehavior(sys.FindBehavior(name)))
		fmt.Println()
	}

	fmt.Println("=== simulating the refined specification ===")
	eng, err := sim.NewEngine(sys)
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.Run(sim.Config{})
	if err != nil {
		log.Fatal(err)
	}
	x := res.Final("comp2", "X").(sim.VecVal)
	mem := res.Final("comp2", "MEM").(sim.ArrayVal)
	fmt.Printf("clocks: %d   deltas: %d   bus events: %d\n",
		res.Clocks, res.Deltas, res.SignalEvents["B"])
	fmt.Printf("X       = %d (want 32)\n", x.V.Uint64())
	fmt.Printf("MEM(5)  = %d (want 39 = X + 7)\n", mem.Elems[5].(sim.VecVal).V.Uint64())
	fmt.Printf("MEM(60) = %d (want 9 = COUNT)\n", mem.Elems[60].(sim.VecVal).V.Uint64())
}
