package verify

import (
	"testing"

	"repro/internal/hdl"
	"repro/internal/sim"
)

// TestLoweringMatchesSimulator: the checker lowers for loops, exit and
// return exactly as the simulator does, so on valid .sys text its
// final values agree with the golden simulation and the verdict is
// clean. Each case once gave a wrong verdict: a for loop that used its
// variable as its own counter (a body write changed the trip count), an
// exit inside a procedure that bound to the caller's loop instead of
// returning from the call, and the same procedure refused outside any
// loop.
func TestLoweringMatchesSimulator(t *testing.T) {
	const bump = `
      procedure bump is
      begin
        X := X + 1;
        exit;
        X := X + 100;
      end procedure;`
	cases := []struct {
		name, src, final string
		want             int64
	}{
		{"for-hidden-counter", `
system ForCounter is
  module m is
    behavior B is
    begin
      for j in 0 to 3 loop
        Y := Y + 1;
        j := j + 1;
      end loop;
    end behavior;
  end module;
  module d is
    variable Y : integer;
  end module;
end system;`, "d.Y", 4},
		{"exit-in-call-in-loop", `
system ExitInLoopCall is
  module m is
    behavior B is` + bump + `
    begin
      for k in 1 to 3 loop
        bump;
      end loop;
    end behavior;
  end module;
  module d is
    variable X : integer;
  end module;
end system;`, "d.X", 3},
		{"exit-in-call-at-top", `
system ExitInCall is
  module m is
    behavior B is` + bump + `
    begin
      bump;
    end behavior;
  end module;
  module d is
    variable X : integer;
  end module;
end system;`, "d.X", 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := hdl.Parse(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := sim.NewEngine(sys)
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run(sim.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Finals[tc.final]; !got.Equal(sim.IntVal{V: tc.want}) {
				t.Fatalf("simulated %s = %v, want %d", tc.final, got, tc.want)
			}
			rep := mustCheck(t, sys, Config{})
			if !rep.Clean() || rep.GoldenClocks < 0 {
				t.Fatalf("verdict not clean (golden clocks %d):\n%s", rep.GoldenClocks, rep.Format())
			}
		})
	}
}
