package fault

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/protogen"
	"repro/internal/sim"
	"repro/internal/spec"
)

// buildPQ constructs the paper's Fig. 3 system (P and Q on comp1
// accessing X and MEM on comp2), the fixture the sim tests use.
func buildPQ() (*spec.System, *spec.Bus) {
	sys := spec.NewSystem("PQ")
	comp1 := sys.AddModule("comp1")
	comp2 := sys.AddModule("comp2")

	p := comp1.AddBehavior(spec.NewBehavior("P"))
	q := comp1.AddBehavior(spec.NewBehavior("Q"))
	x := comp2.AddVariable(spec.NewVar("X", spec.BitVector(16)))
	mem := comp2.AddVariable(spec.NewVar("MEM", spec.Array(64, spec.BitVector(16))))

	ad := p.AddVar("AD", spec.Integer)
	count := q.AddVar("COUNT", spec.BitVector(16))

	p.Body = []spec.Stmt{
		spec.AssignVar(spec.Ref(ad), spec.Int(5)),
		spec.AssignVar(spec.Ref(x), spec.ToVec(spec.Int(32), 16)),
		spec.AssignVar(spec.At(spec.Ref(mem), spec.Ref(ad)),
			spec.Add(spec.Ref(x), spec.ToVec(spec.Int(7), 16))),
	}
	q.Body = []spec.Stmt{
		spec.WaitFor(500),
		spec.AssignVar(spec.Ref(count), spec.ToVec(spec.Int(9), 16)),
		spec.AssignVar(spec.At(spec.Ref(mem), spec.Int(60)), spec.Ref(count)),
	}

	ch0 := sys.AddChannel(&spec.Channel{Name: "CH0", Accessor: p, Var: x, Dir: spec.Write})
	ch1 := sys.AddChannel(&spec.Channel{Name: "CH1", Accessor: p, Var: x, Dir: spec.Read})
	ch2 := sys.AddChannel(&spec.Channel{Name: "CH2", Accessor: p, Var: mem, Dir: spec.Write})
	ch3 := sys.AddChannel(&spec.Channel{Name: "CH3", Accessor: q, Var: mem, Dir: spec.Write})

	bus := &spec.Bus{Name: "B", Channels: []*spec.Channel{ch0, ch1, ch2, ch3}, Width: 8}
	sys.Buses = append(sys.Buses, bus)
	return sys, bus
}

func refinePQ(t testing.TB, cfg protogen.Config) (*spec.System, *spec.Bus, *protogen.Refinement) {
	t.Helper()
	sys, bus := buildPQ()
	ref, err := protogen.Generate(sys, bus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys, bus, ref
}

func runWith(t *testing.T, sys *spec.System, faults []Fault) (*sim.Result, error) {
	t.Helper()
	cfg := sim.Config{MaxClocks: 200_000}
	NewInjector(faults).Attach(&cfg)
	s, err := sim.NewEngine(sys)
	if err != nil {
		t.Fatal(err)
	}
	return s.Run(cfg)
}

func checkPQFinals(t *testing.T, res *sim.Result) {
	t.Helper()
	if x := res.Final("comp2", "X").(sim.VecVal); x.V.Uint64() != 32 {
		t.Errorf("X = %d, want 32", x.V.Uint64())
	}
	mem := res.Final("comp2", "MEM").(sim.ArrayVal)
	if got := mem.Elems[5].(sim.VecVal).V.Uint64(); got != 39 {
		t.Errorf("MEM(5) = %d, want 39", got)
	}
	if got := mem.Elems[60].(sim.VecVal).V.Uint64(); got != 9 {
		t.Errorf("MEM(60) = %d, want 9", got)
	}
}

// droppedDone suppresses the first DONE rise on the bus — the canonical
// lost-strobe fault of the issue's demo.
func droppedDone() []Fault {
	return []Fault{{Class: DropEvent, Signal: "B", Field: "DONE", AfterEvents: 0}}
}

// TestDroppedDoneDeadlocksBaseline: under the paper's ideal-wire
// protocol, losing a single DONE strobe hangs the whole system, and the
// deadlock report carries the bus control-line state for diagnosis.
func TestDroppedDoneDeadlocksBaseline(t *testing.T) {
	sys, _, _ := refinePQ(t, protogen.Config{Protocol: spec.FullHandshake})
	_, err := runWith(t, sys, droppedDone())
	var dl *sim.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("want deadlock, got %v", err)
	}
	if len(dl.Bus) == 0 {
		t.Fatal("DeadlockError.Bus is empty, want control-line state")
	}
	state := strings.Join(dl.Bus, " ")
	// P raised START and is waiting for the acknowledgement that was
	// dropped on the wire.
	if !strings.Contains(state, "B.START='1'") || !strings.Contains(state, "B.DONE='0'") {
		t.Errorf("bus state %q does not show the half-open handshake", state)
	}
}

// TestDroppedDoneRobustRecovers: the hardened protocol times out the
// lost strobe, resynchronizes the server over RST, retransmits, and
// finishes with exactly the fault-free finals.
func TestDroppedDoneRobustRecovers(t *testing.T) {
	for _, parity := range []bool{false, true} {
		name := "robust"
		if parity {
			name = "robust+parity"
		}
		t.Run(name, func(t *testing.T) {
			sys, _, ref := refinePQ(t, protogen.Config{
				Protocol: spec.FullHandshake, Robust: true, Parity: parity,
			})
			res, err := runWith(t, sys, droppedDone())
			if err != nil {
				t.Fatal(err)
			}
			checkPQFinals(t, res)
			for _, key := range ref.AbortKeys() {
				if n := res.Finals[key].(sim.IntVal).V; n != 0 {
					t.Errorf("%s = %d, want 0 (recovery, not abort)", key, n)
				}
			}
		})
	}
}

// TestRobustFaultFree: hardening must not change fault-free semantics.
func TestRobustFaultFree(t *testing.T) {
	for _, cfg := range []protogen.Config{
		{Protocol: spec.FullHandshake, Robust: true},
		{Protocol: spec.FullHandshake, Robust: true, Parity: true},
		{Protocol: spec.HalfHandshake, Robust: true},
	} {
		sys, _, _ := refinePQ(t, cfg)
		res, err := runWith(t, sys, nil)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		checkPQFinals(t, res)
	}
}

// TestTransientIDFlipRobustRecovers: a flipped ID line misroutes a
// word; with parity the corruption is caught by NACK, the ID lines are
// re-driven on retry, and the run completes correctly.
func TestTransientIDFlipRobustRecovers(t *testing.T) {
	sys, _, ref := refinePQ(t, protogen.Config{
		Protocol: spec.FullHandshake, Robust: true, Parity: true,
	})
	faults := []Fault{{Class: BitFlip, Signal: "B", Field: "ID", Bit: 0, AfterEvents: 1}}
	res, err := runWith(t, sys, faults)
	if err != nil {
		t.Fatal(err)
	}
	checkPQFinals(t, res)
	for _, key := range ref.AbortKeys() {
		if n := res.Finals[key].(sim.IntVal).V; n != 0 {
			t.Errorf("%s = %d, want 0", key, n)
		}
	}
}

// TestStuckStartAbortsCleanly: a permanently stuck-low START line makes
// every transaction impossible; the hardened accessors must exhaust
// their retries and count aborts instead of hanging or corrupting.
func TestStuckStartAbortsCleanly(t *testing.T) {
	sys, _, ref := refinePQ(t, protogen.Config{Protocol: spec.FullHandshake, Robust: true})
	faults := []Fault{{Class: StuckAt0, Signal: "B", Field: "START", AfterEvents: 0}}
	res, err := runWith(t, sys, faults)
	if err != nil {
		t.Fatalf("hardened run hung: %v", err)
	}
	var aborts int64
	for _, key := range ref.AbortKeys() {
		aborts += res.Finals[key].(sim.IntVal).V
	}
	if aborts == 0 {
		t.Error("no aborts counted under a dead START line")
	}
}

// TestArbiterUnderFault: arbitration and hardening compose — with
// REQ/GRANT arbitration generated, a dropped DONE still resolves via
// retry and both accessors' transactions commit.
func TestArbiterUnderFault(t *testing.T) {
	sys, _, _ := refinePQ(t, protogen.Config{
		Protocol: spec.FullHandshake, Robust: true, Arbitrate: true,
	})
	res, err := runWith(t, sys, droppedDone())
	if err != nil {
		t.Fatal(err)
	}
	checkPQFinals(t, res)
}

// TestCampaignReproducible: the acceptance criterion — the same seed
// yields byte-for-byte identical campaign results, including under
// parallel execution.
func TestCampaignReproducible(t *testing.T) {
	run := func(workers int) *Report {
		sys, bus, ref := refinePQ(t, protogen.Config{Protocol: spec.FullHandshake, Robust: true})
		rep, err := Campaign(sys, bus, Config{
			Runs: 24, Seed: 42, AbortVars: ref.AbortKeys(), Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(1), run(8)
	if !reflect.DeepEqual(a.Exemplars, b.Exemplars) {
		t.Fatal("same seed produced different campaign exemplars")
	}
	if a.String() != b.String() {
		t.Fatal("same seed produced different campaign reports")
	}
	var total int
	for _, n := range a.Totals {
		total += n
	}
	if total != 24 {
		t.Fatalf("totals sum %d, want 24", total)
	}
}

// TestCampaignWorkerInvariance is the streaming scheduler's determinism
// claim at scale: 10k runs sharded across 1, 4 and 16 workers must
// produce byte-identical reports — same outcome counts, same per-class
// table, same exemplar runs in the same order.
func TestCampaignWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-run campaign")
	}
	sys, bus, ref := refinePQ(t, protogen.Config{Protocol: spec.FullHandshake, Robust: true})
	run := func(workers int) *Report {
		rep, err := Campaign(sys, bus, Config{
			Runs: 10_000, Seed: 1234, AbortVars: ref.AbortKeys(), Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	base := run(1)
	for _, workers := range []int{4, 16} {
		rep := run(workers)
		if rep.String() != base.String() {
			t.Errorf("workers=%d report differs:\n%s\nvs workers=1:\n%s", workers, rep.String(), base.String())
		}
		if !reflect.DeepEqual(rep.Exemplars, base.Exemplars) {
			t.Errorf("workers=%d exemplars differ from workers=1", workers)
		}
	}
	var total int
	for _, n := range base.Totals {
		total += n
	}
	if total != 10_000 {
		t.Fatalf("totals sum %d, want 10000", total)
	}
}

// TestCampaignPooledMatchesUnpooled: a campaign compiles the system
// once, reuses pooled runners (and one injector per chunk), takes the
// golden result for every run whose faults never arm, and resumes every
// other run from the golden run's last checkpoint before its first fault
// arms. Each run must equal a from-scratch run — its own injector,
// simulated from time 0 on an engine that never resumes — in every
// RunResult field, and a simulated run's sim.Result must match in Clocks,
// Steps, Deltas and Finals (a skipped run's golden result too). The
// first 64 runs of each configuration also compile a fresh Engine each,
// so no state leaks from one pooled run to the next. The campaign's
// reports at 1 and 4 workers must equal the from-scratch aggregate.
func TestCampaignPooledMatchesUnpooled(t *testing.T) {
	const runs, freshEngines = 5000, 64
	for _, pc := range []struct {
		name string
		cfg  protogen.Config
	}{
		{"robust", protogen.Config{Protocol: spec.FullHandshake, Robust: true}},
		{"robust-parity", protogen.Config{Protocol: spec.FullHandshake, Robust: true, Parity: true}},
	} {
		t.Run(pc.name, func(t *testing.T) {
			for _, perRun := range []int{1, 3} {
				for _, seed := range []int64{99, 2024} {
					t.Run(fmt.Sprintf("faults=%d,seed=%d", perRun, seed), func(t *testing.T) {
						sys, bus, ref := refinePQ(t, pc.cfg)
						cfg := Config{Runs: runs, Seed: seed, FaultsPerRun: perRun, AbortVars: ref.AbortKeys()}
						eng, err := sim.NewEngine(sys)
						if err != nil {
							t.Fatal(err)
						}
						g, err := newReference(eng, &cfg)
						if err != nil {
							t.Fatal(err)
						}
						scratch, err := sim.NewEngine(sys)
						if err != nil {
							t.Fatal(err)
						}
						scfg := sim.Config{MaxClocks: g.maxClocks, FinalsOnly: true}
						inj := &Injector{}
						inj.Attach(&scfg)
						want := &Report{
							Golden:    g.res,
							Runs:      runs,
							Totals:    make(map[Outcome]int),
							ByClass:   make(map[Class]map[Outcome]int),
							Exemplars: make(map[Outcome][]RunResult),
						}
						var skipped, resumed int
						for i := 0; i < runs; i++ {
							seed := runSeed(seed, i)
							faults := Randomize(bus, Plan{Seed: seed, Count: perRun})
							// From scratch.
							e := scratch
							if i < freshEngines {
								if e, err = sim.NewEngine(sys); err != nil {
									t.Fatal(err)
								}
							}
							fcfg := sim.Config{MaxClocks: g.maxClocks, FinalsOnly: true}
							NewInjector(faults).Attach(&fcfg)
							rr := RunResult{Run: i, Seed: seed, Faults: faults}
							res, err := e.Run(fcfg)
							if err != nil {
								rr.Err = err.Error()
								rr.Outcome = classifyError(err)
							} else {
								rr.Clocks = res.Clocks
								rr.Aborts = sumAborts(res, cfg.AbortVars)
								rr.Outcome = classifyFinals(g.finals, res, rr.Aborts)
							}
							// The campaign's path.
							got := RunResult{Run: i, Seed: seed, Faults: faults}
							gres, k := g.play(eng, inj, scfg, &got)
							switch {
							case k < 0:
								skipped++
							case k > 0:
								resumed++
							}
							if !reflect.DeepEqual(got, rr) {
								t.Fatalf("run %d (checkpoint %d, faults %v): campaign %+v, from scratch %+v", i, k, faults, got, rr)
							}
							if d := resultDiff(gres, res); d != "" {
								t.Fatalf("run %d (checkpoint %d, faults %v): %s", i, k, faults, d)
							}
							want.Totals[rr.Outcome]++
							for c := range classesOf(faults) {
								if want.ByClass[c] == nil {
									want.ByClass[c] = make(map[Outcome]int)
								}
								want.ByClass[c][rr.Outcome]++
							}
							if len(want.Exemplars[rr.Outcome]) < DefaultExemplars {
								want.Exemplars[rr.Outcome] = append(want.Exemplars[rr.Outcome], rr)
							}
						}
						t.Logf("%d runs: %d skipped, %d resumed past the initial state, %d from time 0",
							runs, skipped, resumed, runs-skipped-resumed)
						if skipped == 0 || resumed == 0 {
							t.Errorf("want both skipped and resumed runs, got %d and %d", skipped, resumed)
						}
						for _, workers := range []int{1, 4} {
							cfg.Workers = workers
							rep, err := Campaign(sys, bus, cfg)
							if err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(rep.Totals, want.Totals) || !reflect.DeepEqual(rep.ByClass, want.ByClass) {
								t.Errorf("workers=%d: campaign\n%s\nfrom scratch\n%s", workers, rep, want)
							}
							if !reflect.DeepEqual(rep.Exemplars, want.Exemplars) {
								t.Errorf("workers=%d: campaign exemplars differ from scratch", workers)
							}
						}
					})
				}
			}
		})
	}
}

// TestCampaignTightClockBudget: under a MaxClocks below the golden run's
// clocks every run, armed or not, passes the budget inside the golden
// prefix, so none may take the golden result or resume past time 0:
// all of them hang.
func TestCampaignTightClockBudget(t *testing.T) {
	sys, bus, ref := refinePQ(t, protogen.Config{Protocol: spec.FullHandshake, Robust: true})
	rep, err := Campaign(sys, bus, Config{Runs: 200, Seed: 3, MaxClocks: 100, AbortVars: ref.AbortKeys()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Golden.Clocks <= 100 {
		t.Fatalf("golden run takes %d clocks, want more than the budget", rep.Golden.Clocks)
	}
	if n := rep.Totals[Deadlocked]; n != 200 {
		t.Fatalf("%d of 200 runs hung under MaxClocks 100, want all:\n%s", n, rep)
	}
}

// classesOf returns the set of fault classes in a fault list.
func classesOf(faults []Fault) map[Class]bool {
	set := make(map[Class]bool)
	for _, f := range faults {
		set[f.Class] = true
	}
	return set
}

// resultDiff describes how two results differ in Clocks, Steps, Deltas
// or Finals, or returns "" if they agree (or both are nil).
func resultDiff(got, want *sim.Result) string {
	switch {
	case got == nil && want == nil:
		return ""
	case got == nil || want == nil:
		return fmt.Sprintf("result %v, from scratch %v", got, want)
	case got.Clocks != want.Clocks || got.Steps != want.Steps || got.Deltas != want.Deltas:
		return fmt.Sprintf("clocks/steps/deltas %d/%d/%d, from scratch %d/%d/%d",
			got.Clocks, got.Steps, got.Deltas, want.Clocks, want.Steps, want.Deltas)
	case len(got.Finals) != len(want.Finals):
		return fmt.Sprintf("%d finals, from scratch %d", len(got.Finals), len(want.Finals))
	}
	for k, v := range want.Finals {
		if gv, ok := got.Finals[k]; !ok || !gv.Equal(v) {
			return fmt.Sprintf("final %s = %v, from scratch %v", k, gv, v)
		}
	}
	return ""
}

// TestCampaignConfigValidation: broken configurations must fail up
// front with a clear error, not silently run zero-fault campaigns.
func TestCampaignConfigValidation(t *testing.T) {
	sys, bus, _ := refinePQ(t, protogen.Config{Protocol: spec.FullHandshake})
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"negative-runs", Config{Runs: -1}, "negative Runs"},
		{"negative-faults-per-run", Config{FaultsPerRun: -2}, "negative FaultsPerRun"},
		{"negative-window", Config{Window: -5}, "negative fault window"},
		{"negative-max-clocks", Config{MaxClocks: -1}, "negative MaxClocks"},
		{"negative-max-exemplars", Config{MaxExemplars: -3}, "negative MaxExemplars"},
		{"empty-classes", Config{Classes: []Class{}}, "Classes is empty"},
		{"unknown-class", Config{Classes: []Class{DelayJitter, Class(99)}}, "unknown fault class"},
		{"sim-mutate", Config{Sim: sim.Config{Mutate: func(int64, *spec.Variable, sim.Value, sim.Value) sim.Mutation {
			return sim.Mutation{}
		}}}, "Sim.Mutate is set"},
		{"sim-on-event", Config{Sim: sim.Config{OnEvent: func(int64, *spec.Variable, sim.Value) {}}}, "Sim.OnEvent is set"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Campaign(sys, bus, tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestClassifyError: every way a run hangs is Deadlocked — a deadlock,
// a blown clock budget, a runaway zero-delay loop and a delta-cycle
// livelock — and any other run error is Corrupted. Reaching the
// Engine's livelock backstop takes 50 million delta cycles, so that row
// builds the error; sim.TestHangErrors pins that the Engine returns one.
func TestClassifyError(t *testing.T) {
	runErr := func(sys *spec.System, cfg sim.Config) error {
		t.Helper()
		e, err := sim.NewEngine(sys)
		if err != nil {
			t.Fatal(err)
		}
		_, err = e.Run(cfg)
		if err == nil {
			t.Fatal("run succeeded, want an error")
		}
		return err
	}
	base, _, _ := refinePQ(t, protogen.Config{Protocol: spec.FullHandshake})
	robust, _, _ := refinePQ(t, protogen.Config{Protocol: spec.FullHandshake, Robust: true})
	dropped := sim.Config{}
	NewInjector(droppedDone()).Attach(&dropped)

	spin := spec.NewSystem("t")
	spin.AddModule("m").AddBehavior(spec.NewBehavior("spin")).Body = []spec.Stmt{
		&spec.Loop{Body: []spec.Stmt{&spec.Null{}}},
	}
	oob := spec.NewSystem("t")
	m := oob.AddModule("m")
	mem := m.AddVariable(spec.NewVar("mem", spec.Array(4, spec.Integer)))
	m.AddBehavior(spec.NewBehavior("oob")).Body = []spec.Stmt{
		spec.AssignVar(spec.At(spec.Ref(mem), spec.Int(9)), spec.Int(1)),
	}

	for _, c := range []struct {
		name string
		err  error
		want Outcome
	}{
		{"deadlock", runErr(base, dropped), Deadlocked},
		{"max-clocks", runErr(robust, sim.Config{MaxClocks: 100}), Deadlocked},
		{"runaway", runErr(spin, sim.Config{MaxStepsPerSlice: 1000}), Deadlocked},
		{"livelock", &sim.HangError{Msg: "sim: exceeded 50000000 delta cycles at clock 3 (livelock?)"}, Deadlocked},
		{"runtime-fault", runErr(oob, sim.Config{}), Corrupted},
	} {
		if got := classifyError(c.err); got != c.want {
			t.Errorf("%s: classifyError(%q) = %s, want %s", c.name, c.err, got, c.want)
		}
	}
}

// TestCampaignExemplarRetention: exemplars are the first K runs of each
// outcome by run index, bounded by MaxExemplars, and consistent with
// Totals.
func TestCampaignExemplarRetention(t *testing.T) {
	sys, bus, ref := refinePQ(t, protogen.Config{Protocol: spec.FullHandshake, Robust: true})
	rep, err := Campaign(sys, bus, Config{
		Runs: 100, Seed: 5, AbortVars: ref.AbortKeys(), MaxExemplars: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for o, exs := range rep.Exemplars {
		if len(exs) > 3 {
			t.Errorf("%s: %d exemplars retained, want <= 3", o, len(exs))
		}
		want := rep.Totals[o]
		if want > 3 {
			want = 3
		}
		if len(exs) != want {
			t.Errorf("%s: %d exemplars for %d total runs, want %d", o, len(exs), rep.Totals[o], want)
		}
		for i := 1; i < len(exs); i++ {
			if exs[i-1].Run >= exs[i].Run {
				t.Errorf("%s: exemplar runs out of order: %d then %d", o, exs[i-1].Run, exs[i].Run)
			}
			if exs[i].Outcome != o {
				t.Errorf("exemplar under %s has outcome %s", o, exs[i].Outcome)
			}
		}
	}
}

// TestCampaignRobustNeverCorrupts: on the hardened protocol no injected
// single fault may silently corrupt data — every run either survives,
// aborts cleanly, or (for faults outside the protocol's fault model,
// e.g. a permanently stuck RST) hangs detectably.
func TestCampaignRobustNeverCorrupts(t *testing.T) {
	sys, bus, ref := refinePQ(t, protogen.Config{
		Protocol: spec.FullHandshake, Robust: true, Parity: true,
	})
	rep, err := Campaign(sys, bus, Config{Runs: 40, Seed: 7, AbortVars: ref.AbortKeys()})
	if err != nil {
		t.Fatal(err)
	}
	if n := rep.Totals[Corrupted]; n > 0 {
		for _, rr := range rep.Exemplars[Corrupted] {
			t.Errorf("run %d corrupted under %v (err=%q)", rr.Run, rr.Faults, rr.Err)
		}
		t.Fatalf("%d corrupted runs on the hardened+parity protocol", n)
	}
}

// TestInjectorEventCounting: AfterEvents addresses the Nth transition of
// the targeted field, independent of other fields' traffic.
func TestInjectorEventCounting(t *testing.T) {
	sys, _, _ := refinePQ(t, protogen.Config{Protocol: spec.FullHandshake})
	// Dropping the 100th DONE transition: the PQ workload produces far
	// fewer, so the fault never fires and the run matches fault-free.
	faults := []Fault{{Class: DropEvent, Signal: "B", Field: "DONE", AfterEvents: 100}}
	res, err := runWith(t, sys, faults)
	if err != nil {
		t.Fatal(err)
	}
	checkPQFinals(t, res)
}

// BenchmarkCampaign times one round of the end-to-end benchmark's
// fault-campaign workload at one worker: 3,000 runs on robust PQ and
// 1,000 on robust+parity PQ, both on an 8-bit bus.
func BenchmarkCampaign(b *testing.B) {
	for _, c := range []struct {
		name   string
		parity bool
		runs   int
	}{{"robust", false, 3000}, {"parity", true, 1000}} {
		b.Run(c.name, func(b *testing.B) {
			sys, bus, ref := refinePQ(b, protogen.Config{Protocol: spec.FullHandshake, Robust: true, Parity: c.parity})
			cfg := Config{Runs: c.runs, Seed: 1, AbortVars: ref.AbortKeys(), Workers: 1}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := Campaign(sys, bus, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if n := rep.Totals[Deadlocked]; n != 0 {
					b.Fatalf("%d runs deadlocked", n)
				}
			}
			b.ReportMetric(float64(c.runs*b.N)/b.Elapsed().Seconds(), "runs/s")
		})
	}
}
