package sim

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/estimate"
	"repro/internal/protogen"
	"repro/internal/spec"
)

// renderResult is a result's full text (clocks, deltas, finals without
// elision, signal events, process ends) plus its step count.
func renderResult(res *Result, err error) string {
	var tr batchTrace
	tr.fill(res, err)
	if err != nil {
		return tr.render()
	}
	return fmt.Sprintf("%ssteps %d\n", tr.render(), res.Steps)
}

// checkSpacing checks that cps are the initial state and then every
// stride-th boundary of a run of deltas delta cycles, for one power-of-two
// stride, up to the run's last boundary.
func checkSpacing(t *testing.T, cps []*Checkpoint, deltas int64) {
	t.Helper()
	if len(cps) < 2 || len(cps) > MaxCheckpoints {
		t.Fatalf("%d checkpoints for %d deltas, want 2..%d", len(cps), deltas, MaxCheckpoints)
	}
	stride := cps[1].deltas
	if stride <= 0 || stride&(stride-1) != 0 {
		t.Fatalf("stride %d, want a power of two", stride)
	}
	for i, cp := range cps {
		if cp.deltas != int64(i)*stride {
			t.Fatalf("checkpoint %d at delta %d, want %d", i, cp.deltas, int64(i)*stride)
		}
	}
	if last := cps[len(cps)-1].deltas; last != (deltas-1)/stride*stride {
		t.Fatalf("last checkpoint at delta %d of %d, stride %d", last, deltas, stride)
	}
	if deltas > MaxCheckpoints && len(cps) < MaxCheckpoints/2 {
		t.Fatalf("%d checkpoints for %d deltas, want at least %d", len(cps), deltas, MaxCheckpoints/2)
	}
}

// checkResumes resumes every checkpoint, twice in opposite orders and
// then from four goroutines at once, and compares each result with
// want: a resumed run must not write into the checkpoint it started
// from, nor into any other.
func checkResumes(t *testing.T, e *Engine, cps []*Checkpoint, cfg Config, want string) {
	t.Helper()
	for pass := 0; pass < 2; pass++ {
		for j := range cps {
			i := j
			if pass == 1 {
				i = len(cps) - 1 - j
			}
			if got := renderResult(e.Resume(cps[i], cfg)); got != want {
				t.Fatalf("pass %d, checkpoint %d (delta %d): %s", pass, i, cps[i].deltas, diffLines(want, got))
			}
		}
	}
	var wg sync.WaitGroup
	diffs := make([]string, 4)
	for g := range diffs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(cps); i += len(diffs) {
				if got := renderResult(e.Resume(cps[i], cfg)); got != want {
					diffs[g] = fmt.Sprintf("checkpoint %d: %s", i, diffLines(want, got))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, d := range diffs {
		if d != "" {
			t.Fatal(d)
		}
	}
}

// TestResumeMatchesRun: on hardened PQ, with and without parity and a
// cost model, a checkpointed run equals a plain one, it is checkpointed
// at every delta-cycle boundary when it has at most MaxCheckpoints of
// them (parity under the cost model has more), and resuming from any
// checkpoint reproduces the whole result: clocks, deltas, steps,
// finals, signal events and process ends. The protocol's bus record is
// double-buffered, so a capture that kept a buffer instead of copying
// it fails here; owned arrays are TestCheckpointsEvenlySpaced's.
func TestResumeMatchesRun(t *testing.T) {
	model := estimate.DefaultModel()
	for _, parity := range []bool{false, true} {
		for _, cost := range []*estimate.CostModel{nil, &model} {
			name := map[bool]string{false: "robust", true: "robust+parity"}[parity]
			if cost != nil {
				name += "/cost"
			}
			t.Run(name, func(t *testing.T) {
				sys, bus := buildPQ()
				if _, err := protogen.Generate(sys, bus, protogen.Config{Protocol: spec.FullHandshake, Robust: true, Parity: parity}); err != nil {
					t.Fatal(err)
				}
				e, err := NewEngine(sys)
				if err != nil {
					t.Fatal(err)
				}
				cfg := Config{Cost: cost}
				want := renderResult(e.Run(cfg))
				res, cps, err := e.RunCheckpointed(cfg)
				if got := renderResult(res, err); got != want {
					t.Fatalf("checkpointed run: %s", diffLines(want, got))
				}
				if res.Deltas <= MaxCheckpoints && int64(len(cps)) != res.Deltas {
					t.Fatalf("%d checkpoints for %d deltas, want one per boundary", len(cps), res.Deltas)
				}
				checkSpacing(t, cps, res.Deltas)
				for _, cp := range cps {
					if cp.HookCalls() != 0 {
						t.Fatalf("checkpoint at delta %d counts %d hook calls without a hook", cp.deltas, cp.HookCalls())
					}
				}
				checkResumes(t, e, cps, cfg, want)
			})
		}
	}
}

// TestCheckpointsEvenlySpaced: a run longer than MaxCheckpoints delta
// cycles keeps between MaxCheckpoints/2 and MaxCheckpoints checkpoints
// at one power-of-two stride, and each resumes to the run's result.
// Every delta adds to an element of a module array and of a local array,
// both stored into in place: a checkpoint that shared a container the
// run went on writing would resume with later sums and count them twice.
func TestCheckpointsEvenlySpaced(t *testing.T) {
	sys := spec.NewSystem("t")
	m := sys.AddModule("m")
	s := sys.AddGlobal(spec.NewSignal("S", spec.Bit))
	b := m.AddBehavior(spec.NewBehavior("tick"))
	i := b.AddVar("i", spec.Integer)
	loc := b.AddVar("loc", spec.Array(4, spec.Integer))
	acc := m.AddVariable(spec.NewVar("acc", spec.Array(4, spec.Integer)))
	total := m.AddVariable(spec.NewVar("total", spec.Integer))
	b.Body = []spec.Stmt{
		&spec.For{Var: i, From: spec.Int(1), To: spec.Int(1000), Body: []spec.Stmt{
			spec.AssignSig(spec.Ref(s), spec.Not(spec.Ref(s))),
			spec.AssignVar(spec.At(spec.Ref(acc), spec.Int(1)), spec.Add(spec.At(spec.Ref(acc), spec.Int(1)), spec.Ref(i))),
			spec.AssignVar(spec.At(spec.Ref(loc), spec.Int(2)), spec.Add(spec.At(spec.Ref(loc), spec.Int(2)), spec.Ref(i))),
			spec.WaitFor(1),
		}},
		spec.AssignVar(spec.Ref(total), spec.At(spec.Ref(loc), spec.Int(2))),
	}
	e, err := NewEngine(sys)
	if err != nil {
		t.Fatal(err)
	}
	want := renderResult(e.Run(Config{}))
	res, cps, err := e.RunCheckpointed(Config{})
	if got := renderResult(res, err); got != want {
		t.Fatalf("checkpointed run: %s", diffLines(want, got))
	}
	if res.Deltas <= 2*MaxCheckpoints {
		t.Fatalf("run has %d deltas, want more than %d", res.Deltas, 2*MaxCheckpoints)
	}
	checkSpacing(t, cps, res.Deltas)
	checkResumes(t, e, cps, Config{}, want)
}

// TestResumeRejectsForeignCheckpoints: a checkpoint resumes only on its
// own engine and, past the initial state, under the cost model it was
// captured with.
func TestResumeRejectsForeignCheckpoints(t *testing.T) {
	sys, bus := buildPQ()
	if _, err := protogen.Generate(sys, bus, protogen.Config{Protocol: spec.FullHandshake, Robust: true}); err != nil {
		t.Fatal(err)
	}
	a, err := NewEngine(sys)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEngine(sys)
	if err != nil {
		t.Fatal(err)
	}
	_, cps, err := a.RunCheckpointed(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Resume(cps[1], Config{}); err == nil {
		t.Error("resumed another engine's checkpoint")
	}
	model := estimate.DefaultModel()
	if _, err := a.Resume(cps[1], Config{Cost: &model}); err == nil {
		t.Error("resumed a checkpoint under another cost model")
	}
	if _, err := a.Resume(cps[0], Config{Cost: &model}); err != nil {
		t.Errorf("initial state under a cost model: %v", err)
	}
}

// TestHangErrors: the three ways a run hangs without deadlocking are
// *HangError, found through the process-failure wrapper, and keep their
// messages byte for byte.
func TestHangErrors(t *testing.T) {
	defer func(old int64) { maxDeltas = old }(maxDeltas)
	maxDeltas = 1000

	livelock := spec.NewSystem("t")
	s := livelock.AddGlobal(spec.NewSignal("S", spec.Bit))
	toggle := livelock.AddModule("m").AddBehavior(spec.NewBehavior("toggle"))
	toggle.Body = []spec.Stmt{&spec.Loop{Body: []spec.Stmt{
		spec.AssignSig(spec.Ref(s), spec.Not(spec.Ref(s))),
		spec.WaitOn(s),
	}}}
	spin := spec.NewBehavior("spin")
	spin.Body = []spec.Stmt{&spec.Loop{Body: []spec.Stmt{&spec.Null{}}}}
	slow := spec.NewBehavior("slow")
	slow.Body = []spec.Stmt{&spec.Loop{Body: []spec.Stmt{spec.WaitFor(1000)}}}

	for _, c := range []struct {
		name string
		sys  *spec.System
		cfg  Config
		want string
	}{
		{"livelock", livelock, Config{}, "sim: exceeded 1000 delta cycles at clock 0 (livelock?)"},
		{"runaway", oneModuleSystem(spin), Config{MaxStepsPerSlice: 1000},
			"sim: process spin failed at clock 0: process spin executed 1001 instructions without yielding (runaway zero-delay loop?)"},
		{"max-clocks", oneModuleSystem(slow), Config{MaxClocks: 5000}, "sim: exceeded MaxClocks=5000 at clock 5000"},
	} {
		t.Run(c.name, func(t *testing.T) {
			e, err := NewEngine(c.sys)
			if err != nil {
				t.Fatal(err)
			}
			_, err = e.Run(c.cfg)
			var hang *HangError
			if !errors.As(err, &hang) {
				t.Fatalf("err = %v, want a *HangError", err)
			}
			if err.Error() != c.want {
				t.Fatalf("err = %q, want %q", err, c.want)
			}
		})
	}
}
