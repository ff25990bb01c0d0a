package core_test

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/hdl"
	"repro/internal/sim"
)

// ExampleSynthesize runs the complete interface-synthesis flow on a tiny
// textual specification and simulates the refined result.
func ExampleSynthesize() {
	src := `
system Demo is
  module cpu is
    behavior writer is
      variable i : integer;
    begin
      for i in 0 to 3 loop
        REG(i) := i * 10;
      end loop;
    end behavior;
  end module;
  module io is
    variable REG : array(0 to 3) of bit_vector(7 downto 0);
  end module;
end system;`
	sys, err := hdl.Parse(src)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := core.Synthesize(sys, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("channels: %d, bus width: %d pins\n",
		len(rep.ChannelsDerived), rep.Buses[0].Bus.Width)

	s, err := sim.NewEngine(sys)
	if err != nil {
		log.Fatal(err)
	}
	res, err := s.Run(sim.Config{})
	if err != nil {
		log.Fatal(err)
	}
	reg := res.Final("io", "REG").(sim.ArrayVal)
	fmt.Printf("REG(3) = %d\n", reg.Elems[3].(sim.VecVal).V.Uint64())
	// Output:
	// channels: 1, bus width: 1 pins
	// REG(3) = 30
}
