package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/hdl"
	"repro/internal/par"
	"repro/internal/serve"
	"repro/internal/spec"
	"repro/internal/verify"
)

// env is one invocation's configuration.
type env struct {
	seed    int64
	seconds float64
	// root is the repository root: it holds testdata/ and the
	// .bench_build scratch directory the spill store writes under.
	root string
	// nproc is the engine workers of the proofs and of the campaigns'
	// worker-invariance check, and the connections of serve-warm's
	// populate pass.
	nproc int
	size  sizes
	log   io.Writer
	// speed measures the host speed the timed metrics are scaled by.
	speed *speedProbe
}

// sizes are the workload sizes that are not fixed by the seconds
// budget. The smoke test runs every workload at tinySizes.
type sizes struct {
	setupReps int           // setups per run; setup_s is their median
	warmUp    time.Duration // unmeasured lead-in of the daemon and campaign loops
	warmSet   int           // serve-warm's working set
	// traceInputs is the traced prefix of the serve workloads.
	traceInputs int
	// proofSpec is the spec verify-deep proves; spillBudget is the
	// memory budget of its spilled proof.
	proofSpec   string
	spillBudget int64
	// faultRobust and faultParity are the runs of one campaign round;
	// faultTrace the robust runs of a traced campaign (parity gets a
	// third); faultCheck the runs of the worker-invariance check.
	faultRobust, faultParity, faultTrace, faultCheck int
}

var fullSizes = sizes{
	setupReps: 3, warmUp: time.Second, warmSet: 512, traceInputs: 200,
	proofSpec: "pq", spillBudget: 1 << 20,
	faultRobust: 3000, faultParity: 1000, faultTrace: 30000, faultCheck: 10000,
}

var tinySizes = sizes{
	setupReps: 1, warmSet: 16, traceInputs: 4,
	proofSpec: "pqsolo", spillBudget: 4 << 10,
	faultRobust: 300, faultParity: 100, faultTrace: 300, faultCheck: 300,
}

// runner is one workload after set-up.
type runner interface {
	// timed runs the closed loop for e.seconds and checks every output.
	timed(e *env) (*loopResult, error)
	// traced replays a fixed prefix of the same inputs one at a time
	// through the staged library calls; see trace.go.
	traced(e *env, tr *tracer) error
	// inputs returns the leading generated inputs, for inputs_sha256.
	inputs(e *env) [][]byte
	close()
}

// workload names one benchmark workload and how to set it up.
type workload struct {
	name string
	// tail is the percentile reported as latency_tail_ms: the highest
	// of p99, p90, p85 and p75 with at least ten samples beyond it at
	// the workload's usual sample count in a 14 s run (about 6000
	// requests for synth-cold, 43000 for serve-warm, 100 for
	// verify-mixed, 76 campaign rounds and 42 proofs).
	tail  float64
	setup func(e *env) (runner, error)
}

var workloadList = []workload{
	{"synth-cold", 0.99, setupSynthCold},
	{"serve-warm", 0.99, setupServeWarm},
	{"verify-mixed", 0.90, setupVerifyMixed},
	{"verify-deep", 0.75, setupProof},
	{"fault-campaign", 0.85, setupFaultCampaign},
}

// gate checks the paper's values before any workload runs: Fig. 7's
// CONV_R2 meets its 2000-clock constraint from width 5, the simulated
// FLC completes in 79285 clocks at width 1 and 40757 at width 23, and
// Fig. 8's designs select widths 20, 18 and 16.
func gate() error {
	if w := experiments.Fig7().MinWidthMeetingConstraint; w != 5 {
		return fmt.Errorf("gate: Fig. 7 min width %d, want 5", w)
	}
	sim, err := experiments.Fig7SimCheck([]int{1, 23})
	if err != nil {
		return fmt.Errorf("gate: Fig. 7 simulation: %w", err)
	}
	if sim[0].Clocks != 79285 || sim[1].Clocks != 40757 {
		return fmt.Errorf("gate: Fig. 7 simulated clocks %d and %d, want 79285 and 40757", sim[0].Clocks, sim[1].Clocks)
	}
	f8, err := experiments.Fig8()
	if err != nil {
		return fmt.Errorf("gate: Fig. 8: %w", err)
	}
	for i, want := range []int{20, 18, 16} {
		if got := f8.Rows[i].Width; got != want {
			return fmt.Errorf("gate: Fig. 8 design %s width %d, want %d", f8.Rows[i].Design, got, want)
		}
	}
	return nil
}

// setupCorpus is every workload's first set-up step: the gate, then
// the generator's corpus.
func setupCorpus(e *env) (*corpus, error) {
	if err := gate(); err != nil {
		return nil, err
	}
	return loadCorpus(e.root)
}

// daemonRunner is the common state of the daemon workloads.
type daemonRunner struct {
	c *corpus
	d *daemon
}

func setupDaemon(e *env) (daemonRunner, error) {
	c, err := setupCorpus(e)
	if err != nil {
		return daemonRunner{}, err
	}
	d, err := startDaemon(e.nproc)
	return daemonRunner{c, d}, err
}

func (w *daemonRunner) close() { w.d.close() }

// ---- synth-cold ----

type synthCold struct{ daemonRunner }

func setupSynthCold(e *env) (runner, error) {
	dr, err := setupDaemon(e)
	return &synthCold{dr}, err
}

func (w *synthCold) inputs(e *env) [][]byte {
	var out [][]byte
	for i := 0; i < 64; i++ {
		req := w.c.synthRequest(e.seed, i)
		out = append(out, marshal(&req))
	}
	return out
}

// timed generates each request as the client is about to send it, so
// the stream never repeats however fast the daemon gets. Latency is the
// round trip alone.
func (w *synthCold) timed(e *env) (*loopResult, error) {
	res := closedLoop(e, e.size.warmUp, func(i int) (opRecord, error) {
		req := w.c.synthRequest(e.seed, i)
		lat, err := w.d.queryMiss(&req, func(res *serve.ResultJSON) error { return checkSynth(&req, res) })
		return opRecord{lat: lat, work: 1}, err
	})
	logDaemon(e, w.d)
	return res, nil
}

// checkSynth checks a synthesize or sweep body's shape.
func checkSynth(req *serve.Request, res *serve.ResultJSON) error {
	switch {
	case res.Op != req.Op:
		return fmt.Errorf("body op %q, want %q", res.Op, req.Op)
	case req.Op == serve.OpSweep && len(res.Points) == 0:
		return fmt.Errorf("sweep of %s has no points", res.System)
	case req.Op == serve.OpSynthesize && (len(res.Buses) == 0 || res.VHDLBytes == 0):
		return fmt.Errorf("synthesis of %s has no bus or no VHDL", res.System)
	}
	return nil
}

// logDaemon prints the daemon's cache and queue counters.
func logDaemon(e *env, d *daemon) {
	m, err := d.metrics()
	if err != nil {
		fmt.Fprintf(e.log, "metrics: %v\n", err)
		return
	}
	fmt.Fprintf(e.log, "daemon: %d requests, %d cache hits, %d misses, %d evictions, %d queue rejects\n",
		m["ifsynd_requests_total"], m["ifsynd_cache_hits_total"], m["ifsynd_cache_misses_total"],
		m["ifsynd_cache_evictions_total"], m["ifsynd_queue_rejects_total"])
}

// ---- serve-warm ----

type serveWarm struct {
	daemonRunner
	bodies  [][]byte // working-set request bodies
	results [][]byte // their populate-pass replies
}

// setupServeWarm populates the cache with the working set: the first
// warmSet inputs of synth-cold's generator, all misses.
func setupServeWarm(e *env) (runner, error) {
	dr, err := setupDaemon(e)
	if err != nil {
		return nil, err
	}
	d := dr.d
	w := &serveWarm{daemonRunner: dr}
	w.bodies = w.inputs(e)
	w.results = make([][]byte, len(w.bodies))
	errs := make([]error, len(w.bodies))
	par.For(len(w.bodies), e.nproc, func(i int) {
		rep, err := d.query(w.bodies[i])
		if err == nil {
			_, err = rep.result("miss")
		}
		w.results[i], errs[i] = rep.body, err
	})
	for i, err := range errs {
		if err != nil {
			d.close()
			return nil, fmt.Errorf("populate input %d: %w", i, err)
		}
	}
	return w, nil
}

func (w *serveWarm) inputs(e *env) [][]byte {
	out := make([][]byte, e.size.warmSet)
	for i := range out {
		req := w.c.synthRequest(e.seed, i)
		out[i] = marshal(&req)
	}
	return out
}

// timed cycles the client through the working set; every reply must be
// a hit byte-identical to its populate-pass reply.
func (w *serveWarm) timed(e *env) (*loopResult, error) {
	res := closedLoop(e, e.size.warmUp, func(i int) (opRecord, error) {
		k := i % len(w.bodies)
		t0 := time.Now()
		rep, err := w.d.query(w.bodies[k])
		lat := time.Since(t0)
		switch {
		case err != nil:
		case rep.status != 200 || rep.cache != "hit":
			err = fmt.Errorf("status %d X-Cache %q, want a hit", rep.status, rep.cache)
		case !bytes.Equal(rep.body, w.results[k]):
			err = fmt.Errorf("hit body differs from the populate-pass body")
		}
		return opRecord{lat: lat, work: 1}, err
	})
	logDaemon(e, w.d)
	return res, nil
}

// ---- verify-mixed ----

type verifyMixed struct{ daemonRunner }

func setupVerifyMixed(e *env) (runner, error) {
	dr, err := setupDaemon(e)
	return &verifyMixed{dr}, err
}

func (w *verifyMixed) inputs(e *env) [][]byte {
	var out [][]byte
	for i := 0; i < 2*len(checkCells); i++ {
		req, _ := w.c.checkRequest(e.seed, i)
		out = append(out, marshal(&req))
	}
	return out
}

// timed sends verify and repair requests; each verdict must be the one
// its cell's recorded state space implies. An op's work is the states
// its searches stored, and its stratum its cell.
//
// Each request starts on a collected heap. The cells' live sets range
// from a few kilobytes to 100 MB, so without that a small search pays
// for collecting whichever large one the seeded order put before it:
// over ten seeds the spread (IQR over median) of the median latency was
// 14%, and 11% with the collection.
func (w *verifyMixed) timed(e *env) (*loopResult, error) {
	res := closedLoop(e, e.size.warmUp, func(i int) (opRecord, error) {
		runtime.GC()
		req, k := w.c.checkRequest(e.seed, i)
		var states float64
		lat, err := w.d.queryMiss(&req, func(res *serve.ResultJSON) error {
			states = work(res)
			return checkCells[k].check(res)
		})
		return opRecord{lat: lat, work: states, stratum: k}, err
	})
	logDaemon(e, w.d)
	return res, nil
}

// ---- verify-deep ----

// proofExpect is the verdict of the exhaustive robust proof at drop
// budget 0, by spec. The soundness fix of the checker's dedup key may
// change the state counts but not these kinds.
var proofExpect = map[string]string{
	"pq":     "clean exhaustive",
	"pqsolo": "clean exhaustive",
}

// proofRunner repeats the exhaustive robust proof at drop budget 0
// through core.Synthesize{Verify} at nproc engine workers, in RAM and
// under a memory budget that spills sealed BFS layers to disk.
type proofRunner struct {
	spec     string // "pq" or "pqsolo"
	text     string
	budget   int64
	spillDir string
	ref      *serve.VerifyJSON // the first proof's report
}

func setupProof(e *env) (runner, error) {
	c, err := setupCorpus(e)
	if err != nil {
		return nil, err
	}
	w := &proofRunner{spec: e.size.proofSpec, text: c.pq.text, budget: e.size.spillBudget}
	if w.spec == "pqsolo" {
		w.text = c.pqSolo.text
	}
	scratch := filepath.Join(e.root, ".bench_build")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	w.spillDir, err = os.MkdirTemp(scratch, "spill-")
	return w, err
}

func (w *proofRunner) close() { os.RemoveAll(w.spillDir) }

func (w *proofRunner) inputs(e *env) [][]byte { return [][]byte{[]byte(w.text)} }

// proofOptions is the exhaustive robust proof: width 8 keeps PQ's
// 8-bit bus, and the state bound is far above the reachable set.
func (w *proofRunner) proofOptions(budget int64, workers int) core.Options {
	return core.Options{
		ForceWidth: 8, Robust: true, Workers: workers,
		Verify: true, VerifyStates: 4_000_000,
		VerifyMemBudget: budget, VerifySpillDir: w.spillDir,
	}
}

// proof runs one proof from the .sys text, checks it and collects its
// garbage, so the next proof does not pay for it. It returns the time
// the proof took and the states it stored.
//
// The heap is not returned to the OS between proofs: the reference box
// is a virtual machine that hands freed guest pages back to its host,
// and faulting them in again made each proof 15% slower and spread
// wider (ten seeds in alternation).
func (w *proofRunner) proof(e *env, budget int64) (time.Duration, float64, error) {
	defer runtime.GC()
	t0 := time.Now()
	sys, err := hdl.Parse(w.text)
	if err != nil {
		return 0, 0, err
	}
	rep, err := core.Synthesize(sys, w.proofOptions(budget, e.nproc))
	lat := time.Since(t0)
	if err != nil {
		return lat, 0, err
	}
	if budget > 0 && rep.Verify.SpilledStates == 0 {
		return lat, 0, fmt.Errorf("proof under a %d-byte budget spilled nothing", budget)
	}
	return lat, float64(rep.Verify.States), w.checkProof(rep.Verify)
}

// checkProof compares a proof with the workload's verdict and with the
// first proof: states, transitions, violations and the reachable-set
// fingerprint must be identical at any memory budget and worker count.
func (w *proofRunner) checkProof(rep *verify.Report) error {
	v := serve.NewVerifyJSON(rep)
	if got, want := verdict(&serve.ResultJSON{Verify: v}), proofExpect[w.spec]; got != want {
		return fmt.Errorf("proof verdict %q, want %q", got, want)
	}
	if w.ref == nil {
		w.ref = v
	} else if !reflect.DeepEqual(v, w.ref) {
		return fmt.Errorf("proof report differs: %d states %d transitions %s, first proof %d states %d transitions %s",
			v.States, v.Transitions, v.Fingerprint, w.ref.States, w.ref.Transitions, w.ref.Fingerprint)
	}
	return nil
}

// timed repeats the proof in RAM; one op is a proof and its work the
// states it stored. After the measured phase it proves once more under
// the memory budget, untimed, and every report must match the first.
//
// The spilled proof is not timed: its spill files are created and
// deleted on a filesystem mounted with discard, and on the reference
// box each run of spilled proofs left the next one slower, by 25% over
// ten runs, while the in-RAM proof stayed within its spread.
func (w *proofRunner) timed(e *env) (*loopResult, error) {
	res := closedLoop(e, e.size.warmUp, func(int) (opRecord, error) {
		lat, states, err := w.proof(e, 0)
		return opRecord{lat: lat, work: states}, err
	})
	if _, _, err := w.proof(e, w.budget); err != nil {
		return res, fmt.Errorf("spilled proof: %w", err)
	}
	return res, nil
}

// ---- fault-campaign ----

// faultVariant is one refined system a campaign injects faults into.
type faultVariant struct {
	name   string
	parity bool
	runs   int // faulty runs per round
	text   string
	sys    *spec.System
	bus    *spec.Bus
	aborts []string
}

// synthesize refines the variant from its .sys text: robust PQ, or
// robust+parity PQ, at PQ's 8-bit width.
func (v *faultVariant) synthesize(workers int) error {
	sys, err := hdl.Parse(v.text)
	if err != nil {
		return err
	}
	rep, err := core.Synthesize(sys, v.options(workers))
	if err != nil {
		return err
	}
	v.sys, v.bus, v.aborts = sys, rep.Buses[0].Bus, rep.Buses[0].Ref.AbortKeys()
	return nil
}

func (v *faultVariant) options(workers int) core.Options {
	return core.Options{ForceWidth: 8, Robust: true, Parity: v.parity, Workers: workers}
}

type faultCampaign struct {
	variants []*faultVariant
}

func setupFaultCampaign(e *env) (runner, error) {
	c, err := setupCorpus(e)
	if err != nil {
		return nil, err
	}
	w := &faultCampaign{}
	for _, parity := range []bool{false, true} {
		v := &faultVariant{name: "robust", parity: parity, runs: e.size.faultRobust, text: c.pq.text}
		if parity {
			v.name, v.runs = "parity", e.size.faultParity
		}
		if err := v.synthesize(e.nproc); err != nil {
			return nil, fmt.Errorf("fault %s: %w", v.name, err)
		}
		w.variants = append(w.variants, v)
	}
	return w, nil
}

func (w *faultCampaign) close() {}

func (w *faultCampaign) inputs(e *env) [][]byte {
	out := [][]byte{[]byte(w.variants[0].text)}
	for i := 0; i < 64; i++ {
		out = append(out, []byte(fmt.Sprint(roundSeed(e.seed, i))))
	}
	return out
}

// roundSeed is the campaign seed of round i, derived from the
// benchmark seed.
func roundSeed(seed int64, i int) int64 { return inputRNG(seed, i).Int63() }

// campaign runs one campaign; no hardened run may hang.
func (w *faultCampaign) campaign(v *faultVariant, runs int, seed int64, workers int) (*fault.Report, error) {
	rep, err := fault.Campaign(v.sys, v.bus, fault.Config{
		Runs: runs, Seed: seed, AbortVars: v.aborts, Workers: workers,
	})
	if err != nil {
		return nil, fmt.Errorf("%s campaign: %w", v.name, err)
	}
	if n := rep.Totals[fault.Deadlocked]; n != 0 {
		return rep, fmt.Errorf("%s campaign (seed %d): %d runs deadlocked", v.name, seed, n)
	}
	return rep, nil
}

// campaignWorkers is the engine workers of a measured campaign. On the
// 2-vCPU reference box, ten seeds run in alternation with two workers
// and with one spread (IQR over median) by 11% and 4% in the median
// round; two workers made rounds 1.5 times as fast.
const campaignWorkers = 1

// timed runs campaign rounds: a robust campaign, then a robust+parity
// campaign of a third the runs (the 3:1 mix of the two variants). One
// op is a round; its work is its faulty runs. After the deadline it
// checks that a fixed prefix of runs classifies identically at one
// worker and at nproc workers.
//
// Each round starts on a collected heap, so it does not pay for the
// garbage of the rounds before it: over ten seeds that took the spread
// (IQR over median) of the median round from 16% to 9%.
func (w *faultCampaign) timed(e *env) (*loopResult, error) {
	res := closedLoop(e, e.size.warmUp, func(i int) (opRecord, error) {
		runtime.GC()
		t0 := time.Now()
		runs := 0
		for _, v := range w.variants {
			if _, err := w.campaign(v, v.runs, roundSeed(e.seed, i), campaignWorkers); err != nil {
				return opRecord{lat: time.Since(t0)}, err
			}
			runs += v.runs
		}
		return opRecord{lat: time.Since(t0), work: float64(runs)}, nil
	})
	for _, v := range w.variants {
		one, err := w.campaign(v, e.size.faultCheck, e.seed, 1)
		if err != nil {
			return res, err
		}
		all, err := w.campaign(v, e.size.faultCheck, e.seed, e.nproc)
		if err != nil {
			return res, err
		}
		if !reflect.DeepEqual(one.Totals, all.Totals) || !reflect.DeepEqual(one.ByClass, all.ByClass) {
			return res, fmt.Errorf("%s campaign histogram differs between 1 and %d workers", v.name, e.nproc)
		}
	}
	return res, nil
}
