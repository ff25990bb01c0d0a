package fault

import (
	"errors"
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
// once and reuses pooled runners (and one injector per chunk) across
// its runs. Re-running every run unpooled — a freshly compiled Engine
// and a fresh injector each — must reproduce the report's totals and
// exemplars exactly, so no state leaks from one pooled run to the next.
func TestCampaignPooledMatchesUnpooled(t *testing.T) {
	for _, pc := range []struct {
		name string
		cfg  protogen.Config
	}{
		{"robust", protogen.Config{Protocol: spec.FullHandshake, Robust: true}},
		{"robust-parity", protogen.Config{Protocol: spec.FullHandshake, Robust: true, Parity: true}},
	} {
		t.Run(pc.name, func(t *testing.T) {
			sys, bus, ref := refinePQ(t, pc.cfg)
			const runs, seed = 64, 99
			rep, err := Campaign(sys, bus, Config{Runs: runs, Seed: seed, AbortVars: ref.AbortKeys()})
			if err != nil {
				t.Fatal(err)
			}
			golds := goldenFinals(rep.Golden, ref.AbortKeys())
			totals := make(map[Outcome]int)
			exemplars := make(map[Outcome][]RunResult)
			for i := 0; i < runs; i++ {
				rr := RunResult{Run: i, Seed: runSeed(seed, i)}
				rr.Faults = Randomize(bus, Plan{Seed: rr.Seed})
				cfg := sim.Config{MaxClocks: 16*rep.Golden.Clocks + 4096, FinalsOnly: true}
				NewInjector(rr.Faults).Attach(&cfg)
				eng, err := sim.NewEngine(sys)
				if err != nil {
					t.Fatal(err)
				}
				if res, err := eng.Run(cfg); err != nil {
					rr.Err = err.Error()
					rr.Outcome = classifyError(err)
				} else {
					rr.Clocks = res.Clocks
					rr.Aborts = sumAborts(res, ref.AbortKeys())
					rr.Outcome = classifyFinals(golds, res, rr.Aborts)
				}
				totals[rr.Outcome]++
				if len(exemplars[rr.Outcome]) < DefaultExemplars {
					exemplars[rr.Outcome] = append(exemplars[rr.Outcome], rr)
				}
			}
			if !reflect.DeepEqual(rep.Totals, totals) {
				t.Errorf("pooled totals %v, unpooled %v", rep.Totals, totals)
			}
			if !reflect.DeepEqual(rep.Exemplars, exemplars) {
				t.Error("pooled exemplars differ from unpooled")
			}
		})
	}
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
