package verify

import (
	"strings"
	"testing"

	"repro/internal/hdl"
	"repro/internal/sim"
	"repro/internal/spec"
)

// TestLoweringMatchesSimulator: the checker steps the simulator's own
// compiled programs, so its final values agree with the golden
// simulation and the verdict is clean. Each case once gave a wrong
// verdict: a for loop that used its variable as its own counter (a body
// write changed the trip count), an exit inside a procedure that bound
// to the caller's loop instead of returning from the call, the same
// procedure refused outside any loop, and a module variable used as a
// bounded wait's timeout flag (the checker kept the flag in a process
// local, so the module variable never changed). .sys text has no
// timeout-flag syntax, so that case is built in Go. The last case
// clears a procedure-local array on every call: the simulator once
// mutated the shared zero template in place from the second call on,
// so a pooled Engine's next run (and the checker, which clears to the
// same template after the golden run) started from a dirty "zero".
// The not-writable case assigns a variable nothing declares: the
// simulator refuses the store, and the checker once stored into the
// local's initial value and proved the system clean; both must now fail
// with the simulator's error.
func TestLoweringMatchesSimulator(t *testing.T) {
	const bump = `
      procedure bump is
      begin
        X := X + 1;
        exit;
        X := X + 100;
      end procedure;`
	cases := []struct {
		name, src string
		build     func() *spec.System // used instead of src when set
		final     string
		want      sim.Value
		err       string // both executors must fail with it, when set
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
end system;`, nil, "d.Y", sim.IntVal{V: 4}, ""},
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
end system;`, nil, "d.X", sim.IntVal{V: 3}, ""},
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
end system;`, nil, "d.X", sim.IntVal{V: 1}, ""},
		{"shared-timeout-flag", "", func() *spec.System {
			sys := spec.NewSystem("SharedFlag")
			g := sys.AddGlobal(spec.NewSignal("G", spec.Bit))
			flag := sys.AddModule("d").AddVariable(spec.NewVar("T", spec.Bool))
			b := sys.AddModule("m").AddBehavior(spec.NewBehavior("B"))
			// G is never driven, so the wait times out and sets d.T.
			b.Body = []spec.Stmt{spec.WaitUntilFor(spec.Eq(spec.Ref(g), spec.VecString("1")), 3, flag)}
			return sys
		}, "d.T", sim.BoolVal{V: true}, ""},
		{"cleared-local-array", `
system ClearedLocal is
  module m is
    behavior B is
      procedure twice is
        variable a : array (0 to 3) of integer;
      begin
        a(0) := a(0) + 1;
        a(0) := a(0) + 1;
        X := X + a(0);
      end procedure;
    begin
      twice;
      twice;
    end behavior;
  end module;
  module d is
    variable X : integer;
  end module;
end system;`, nil, "d.X", sim.IntVal{V: 4}, ""},
		{"not-writable", "", func() *spec.System {
			// .sys text cannot name an undeclared variable, so this case
			// is built in Go: B runs u := 1; Y := u with u declared
			// nowhere.
			sys := spec.NewSystem("NotWritable")
			y := sys.AddModule("d").AddVariable(spec.NewVar("Y", spec.Integer))
			u := spec.NewVar("u", spec.Integer)
			b := sys.AddModule("m").AddBehavior(spec.NewBehavior("B"))
			b.Body = []spec.Stmt{
				spec.AssignVar(spec.Ref(u), spec.Int(1)),
				spec.AssignVar(spec.Ref(y), spec.Ref(u)),
			}
			return sys
		}, "", nil, "process B: variable u not writable"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var sys *spec.System
			if tc.build != nil {
				sys = tc.build()
			} else {
				var err error
				if sys, err = hdl.Parse(tc.src); err != nil {
					t.Fatal(err)
				}
			}
			eng, err := sim.NewEngine(sys)
			if err != nil {
				t.Fatal(err)
			}
			if tc.err != "" {
				if _, err := eng.Run(sim.Config{}); err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("simulator: Run = %v, want an error containing %q", err, tc.err)
				}
				if rep, err := Check(sys, Config{}); err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("checker: Check = %v, want an error containing %q (report: %v)", err, tc.err, rep)
				}
				return
			}
			// Twice: a pooled Engine's runs must not see each other.
			for run := 1; run <= 2; run++ {
				res, err := eng.Run(sim.Config{})
				if err != nil {
					t.Fatal(err)
				}
				if got := res.Finals[tc.final]; got == nil || !got.Equal(tc.want) {
					t.Fatalf("run %d: simulated %s = %v, want %v", run, tc.final, got, tc.want)
				}
			}
			rep := mustCheck(t, sys, Config{})
			if !rep.Clean() || rep.GoldenClocks < 0 {
				t.Fatalf("verdict not clean (golden clocks %d):\n%s", rep.GoldenClocks, rep.Format())
			}
			// The partial-order reduction must see the store: the
			// checked variable is in B's footprint, read and written.
			m := newTestMachine(t, sys, Config{})
			for gi, name := range m.gname {
				if name == tc.final && (!m.progs[0].writes[gi] || !m.progs[0].reads[gi]) {
					t.Fatalf("%s missing from B's footprint (read %v, written %v)", name, m.progs[0].reads[gi], m.progs[0].writes[gi])
				}
			}
		})
	}
}
