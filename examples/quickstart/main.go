// Quickstart: the smallest complete tour of the interface-synthesis
// API. Two processes on one chip access a register and a memory on
// another chip; we derive the channels, let bus generation pick a
// width, generate the transfer protocol, print the refined
// specification, and simulate it to show the communication still
// computes the same values.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/vhdlgen"
)

func main() {
	// 1. Specify the system: a producer writes 16 words into a remote
	//    memory, a checker reads a remote status register.
	sys := spec.NewSystem("quickstart")
	cpu := sys.AddModule("cpu")
	memchip := sys.AddModule("memchip")

	memory := memchip.AddVariable(spec.NewVar("MEMORY", spec.Array(16, spec.BitVector(8))))
	status := memchip.AddVariable(spec.NewVar("STATUS", spec.BitVector(8)))
	status.Init = spec.VecString("10100101")

	producer := cpu.AddBehavior(spec.NewBehavior("producer"))
	i := producer.AddVar("i", spec.Integer)
	producer.Body = []spec.Stmt{
		&spec.For{Var: i, From: spec.Int(0), To: spec.Int(15), Body: []spec.Stmt{
			spec.AssignVar(spec.At(spec.Ref(memory), spec.Ref(i)),
				spec.ToVec(spec.Mul(spec.Ref(i), spec.Int(3)), 8)),
		}},
	}

	checker := cpu.AddBehavior(spec.NewBehavior("checker"))
	seen := cpu.AddVariable(spec.NewVar("seen_status", spec.BitVector(8)))
	checker.Body = []spec.Stmt{
		spec.WaitFor(400), // stay off the bus while the producer runs
		spec.AssignVar(spec.Ref(seen), spec.Ref(status)),
	}

	// 2. Run interface synthesis: channel derivation, bus generation,
	//    protocol generation.
	rep, err := core.Synthesize(sys, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	bus := rep.Buses[0].Bus
	fmt.Printf("derived %d channels; selected bus width %d (rate %.1f bits/clock)\n",
		len(rep.ChannelsDerived), bus.Width, rep.Buses[0].Gen.BusRate)
	fmt.Printf("bus wires: %d data + %d control + %d id = %d total\n\n",
		bus.Width, bus.Protocol.ControlLines(), bus.IDBits(), bus.TotalLines())

	// 3. Inspect the refined specification.
	fmt.Println(vhdlgen.Summary(sys))

	// 4. Simulate the refined system.
	eng, err := sim.NewEngine(sys)
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.Run(sim.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated %d clocks, %d delta cycles\n", res.Clocks, res.Deltas)

	mem := res.Final("memchip", "MEMORY").(sim.ArrayVal)
	fmt.Printf("MEMORY[5] = %s (want 15 = \"00001111\")\n", mem.Elems[5])
	fmt.Printf("checker saw STATUS = %s (want \"10100101\")\n", res.Final("cpu", "seen_status"))
}
