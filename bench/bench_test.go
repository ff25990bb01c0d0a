package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/par"
	"repro/internal/serve"
)

// benchmarkFile is the part of ../BENCHMARK.json the tests compare
// against.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return &f
}

// runTiny runs one workload at tiny sizes and decodes its result line.
func runTiny(t *testing.T, args ...string) output {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append([]string{"--root", "..", "--seconds", "0.2"}, args...)
	code := run(args, &stdout, &stderr, tinySizes)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var out output
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("%v: exit %d, no result line: %v\n%s", args, code, err, stderr.String())
	}
	if code != 0 || !out.Correct || out.Failed != 0 || out.Attempted == 0 {
		t.Fatalf("%v: exit %d, result %+v\n%s", args, code, out, stderr.String())
	}
	return out
}

func metricNames(out output) []string {
	var names []string
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestSmoke runs every workload, timed and traced, at tiny sizes: each
// must check out correct and emit exactly the metrics BENCHMARK.json
// lists, with the units it lists.
func TestSmoke(t *testing.T) {
	f := readBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, " "), strings.Join(workloadNames(), " "); got != want {
		t.Fatalf("BENCHMARK.json workloads %q, bench runs %q", got, want)
	}
	for _, w := range workloadNames() {
		for trace, defs := range map[string][]struct{ Name, Unit string }{"0": f.EndToEnd, "1": f.PerLayer} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				t.Parallel()
				out := runTiny(t, "--workload", w, "--trace", trace)
				var want []string
				for _, d := range defs {
					want = append(want, d.Name)
					if m, ok := out.Metrics[d.Name]; ok && m.Unit != d.Unit {
						t.Errorf("%s unit %q, BENCHMARK.json says %q", d.Name, m.Unit, d.Unit)
					}
				}
				sort.Strings(want)
				if got := metricNames(out); strings.Join(got, " ") != strings.Join(want, " ") {
					t.Errorf("emits %v\nBENCHMARK.json lists %v", got, want)
				}
			})
		}
	}
}

// TestSeedsCorrect is the error_rate == 0 check on seeds 1 to 3.
func TestSeedsCorrect(t *testing.T) {
	for _, seed := range []string{"2", "3"} {
		for _, w := range workloadNames() {
			t.Run(w+"/seed"+seed, func(t *testing.T) {
				t.Parallel()
				runTiny(t, "--workload", w, "--seed", seed)
			})
		}
	}
}

// TestGenerator pins the input generator: a seed fixes the inputs,
// different seeds give different inputs, and every generated daemon
// request is one the daemon accepts and answers as a miss.
func TestGenerator(t *testing.T) {
	c, err := loadCorpus("..")
	if err != nil {
		t.Fatal(err)
	}
	e := &env{size: tinySizes}
	digests := map[string]int64{}
	for _, seed := range []int64{1, 2, 3} {
		e.seed = seed
		for _, r := range []runner{&synthCold{daemonRunner{c: c}}, &verifyMixed{daemonRunner{c: c}}} {
			d := inputsDigest(r.inputs(e))
			if again := inputsDigest(r.inputs(e)); again != d {
				t.Fatalf("seed %d: inputs_sha256 %s then %s", seed, d, again)
			}
			if prev, ok := digests[d]; ok {
				t.Fatalf("seeds %d and %d generate the same inputs", prev, seed)
			}
			digests[d] = seed
		}
	}

	d, err := startDaemon(2)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	var bodies [][]byte
	for _, seed := range []int64{1, 2, 3} {
		for i := 0; i < 300; i++ {
			req := c.synthRequest(seed, i)
			bodies = append(bodies, marshal(&req))
		}
	}
	// One block of verify-mixed holds every catalog cell once.
	cells := map[int]*checkCell{}
	for i := range checkCells {
		req, k := c.checkRequest(1, i)
		cells[len(bodies)] = &checkCells[k]
		bodies = append(bodies, marshal(&req))
	}
	errs := make([]error, len(bodies))
	par.For(len(bodies), 2, func(i int) {
		rep, err := d.query(bodies[i])
		if err != nil {
			errs[i] = err
			return
		}
		res, err := rep.result("miss")
		if cell := cells[i]; err == nil && cell != nil {
			err = cell.check(res)
		}
		errs[i] = err
	})
	for i, err := range errs {
		if err != nil {
			t.Errorf("request %d: %v\n%s", i, err, bodies[i])
		}
	}
}

// TestCatalog holds verify-mixed's catalog to its rules: the 80/20
// split of verify and repair, bounds from 5k to 60k states, and every
// cell exhaustive with at least 1.5 times its reachable set in hand or
// bounded with at least 1.5 times its bound beyond it.
func TestCatalog(t *testing.T) {
	names := map[string]bool{}
	ops := map[string]int{}
	for _, c := range checkCells {
		b := c.opts.VerifyStates
		if names[c.name] {
			t.Errorf("%s: listed twice", c.name)
		}
		names[c.name] = true
		ops[c.op]++
		if b < 5000 || b > 60000 {
			t.Errorf("%s: bound %d outside 5k..60k", c.name, b)
		}
		if c.reach != 0 && 3*c.reach > 2*b && 2*c.reach < 3*b {
			t.Errorf("%s: bound %d within a factor 1.5 of its %d reachable states", c.name, b, c.reach)
		}
	}
	if ops[serve.OpVerify] != 4*ops[serve.OpRepair] {
		t.Errorf("%d verify and %d repair cells, want 80/20", ops[serve.OpVerify], ops[serve.OpRepair])
	}
}

// TestSpeedProbe checks that the probe's kernels allocate nothing, so
// the program's garbage collector cannot slow them, and that a probe
// gives a positive, finite index.
func TestSpeedProbe(t *testing.T) {
	p, err := newSpeedProbe(2)
	if err != nil {
		t.Fatal(err)
	}
	for k, kern := range kernels {
		if n := testing.AllocsPerRun(10, func() { kern.batch(p, 1, 1) }); n != 0 {
			t.Errorf("kernel %d allocates %.0f times a batch", k, n)
		}
	}
	if s := p.measure(); !(s > 0) || math.IsInf(s, 0) {
		t.Errorf("speed index %g", s)
	}
}

// TestQuantile pins the Harrell-Davis estimator to values worked out
// from the Beta weights apart from this code, with equal and unequal
// weights; for the first, the weights of the five values are .058,
// .260, .365, .260 and .058.
func TestQuantile(t *testing.T) {
	seq := make([]float64, 1000)
	for i := range seq {
		seq[i] = float64(1000 - i)
	}
	for _, c := range []struct {
		vals, weights []float64
		p, want       float64
	}{
		{[]float64{1, 2, 3, 4, 100}, nil, 0.5, 8.5024},
		{[]float64{3, 1, 2}, nil, 0.9, 2.920364871},
		{[]float64{10, 20, 30, 40}, []float64{1, 1, 2, 2}, 0.5, 29.409082873},
		{seq, nil, 0.99, 990.5},
		{[]float64{7}, nil, 0.5, 7},
	} {
		if got := quantile(c.vals, c.weights, c.p); math.Abs(got-c.want) > 1e-6*c.want {
			t.Errorf("quantile(%v, %v, %g) = %.9g, want %.9g", c.vals[:min(len(c.vals), 5)], c.weights, c.p, got, c.want)
		}
	}
}
