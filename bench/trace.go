package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/busgen"
	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/explore"
	"repro/internal/fault"
	"repro/internal/hdl"
	"repro/internal/partition"
	"repro/internal/protogen"
	"repro/internal/repair"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/verify"
	"repro/internal/vhdlgen"
)

// span is one timed call into a layer, recorded from outside it.
type span struct {
	ID      int              `json:"id"`
	Parent  int              `json:"parent"` // 0 for a root span
	Name    string           `json:"name"`
	Start   int64            `json:"start_ns"` // since the traced run began
	End     int64            `json:"end_ns"`
	Request int              `json:"request"`
	Pass    int              `json:"pass"`
	Counts  map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps the spans of a traced run in memory. The replay is
// sequential, so open spans form a stack.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // indices of open spans, innermost last
	last  int   // index of the most recently ended span
	// request and pass label new spans: the input being replayed and
	// the replay pass; exact counters come from pass 0 alone.
	request, pass int
	// attempted and failed count replayed inputs and failed checks.
	attempted, failed int
	firstErr          error
	// cpu0, gc0 and alloc0 are the runtime counters at the start.
	cpu0, gc0, alloc0 float64
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.cpu0, t.gc0, t.alloc0 = runtimeCounters()
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) begin(name string) {
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: t.now(), Request: t.request, Pass: t.pass,
	})
	t.open = append(t.open, len(t.spans)-1)
}

func (t *tracer) end() {
	n := len(t.open) - 1
	t.last = t.open[n]
	t.open = t.open[:n]
	t.spans[t.last].End = t.now()
}

// note attaches a count to the span that ended last.
func (t *tracer) note(key string, v int64) {
	s := &t.spans[t.last]
	if s.Counts == nil {
		s.Counts = map[string]int64{}
	}
	s.Counts[key] += v
}

// fail records a failed check.
func (t *tracer) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// call records fn as a span named name.
func call[T any](t *tracer, name string, fn func() (T, error)) (T, error) {
	t.begin(name)
	v, err := fn()
	t.end()
	return v, err
}

// allocCounted records fn as a span and notes the heap bytes and
// objects it allocated.
func allocCounted[T any](t *tracer, name string, fn func() (T, error)) (T, error) {
	b0, o0 := heapAllocs()
	v, err := call(t, name, fn)
	b1, o1 := heapAllocs()
	t.note("alloc_bytes", int64(b1-b0))
	t.note("allocs", int64(o1-o0))
	return v, err
}

func heapAllocs() (allocBytes, allocObjects uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// runtimeCounters reads total CPU seconds, GC CPU seconds and allocated
// bytes from runtime/metrics.
func runtimeCounters() (cpu, gc, alloc float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64(), float64(s[2].Value.Uint64())
}

// replay runs passes over a fixed input prefix until the run's seconds
// are spent, starting another pass only while it is expected to fit.
// Timings aggregate every pass; exact counters come from the first.
func (t *tracer) replay(e *env, pass func() error) error {
	start := time.Now()
	for t.pass = 0; ; t.pass++ {
		p0 := time.Now()
		if err := pass(); err != nil {
			return err
		}
		if time.Since(start)+time.Since(p0) > time.Duration(e.seconds*float64(time.Second)) {
			return nil
		}
	}
}

// input replays input i: fn runs under a root span "request", and
// check, outside it, compares what the staged calls produced.
func (t *tracer) input(i int, fn func() error, check func() error) {
	t.request = i
	t.attempted++
	t.begin("request")
	err := fn()
	t.end()
	if err == nil {
		err = check()
	}
	if err != nil {
		t.fail(fmt.Errorf("request %d: %w", i, err))
	}
}

// ---- the staged replica of core.Synthesize and the serve ops ----

func parse(t *tracer, text string) (*spec.System, error) {
	sys, err := call(t, "hdl.Parse", func() (*spec.System, error) { return hdl.Parse(text) })
	if err != nil {
		return nil, err
	}
	t.note("bytes", int64(len(text)))
	_, err = call(t, "spec.Hash", func() (spec.Digest, error) { return spec.Hash(sys), nil })
	return sys, err
}

func validate(t *tracer, sys *spec.System, what string) error {
	_, err := call(t, "spec.Validate", func() (bool, error) {
		if errs := sys.Validate(); len(errs) > 0 {
			return false, fmt.Errorf("%s system invalid: %w", what, errs[0])
		}
		return true, nil
	})
	return err
}

func generate(t *tracer, sys *spec.System, bus *spec.Bus, cfg protogen.Config) (*protogen.Refinement, error) {
	ref, err := call(t, "protogen.Generate", func() (*protogen.Refinement, error) {
		return protogen.Generate(sys, bus, cfg)
	})
	if err == nil {
		t.note("rewritten_stmts", int64(ref.RewrittenStmts))
	}
	return ref, err
}

// check runs verify.Check as a span with the checker's counters.
func check(t *tracer, sys *spec.System, cfg verify.Config) (*verify.Report, error) {
	rep, err := allocCounted(t, "verify.Check", func() (*verify.Report, error) { return verify.Check(sys, cfg) })
	if err != nil {
		return nil, err
	}
	t.note("states", int64(rep.States))
	t.note("transitions", rep.Transitions)
	t.note("violations", int64(len(rep.Violations)))
	t.note("spilled_states", int64(rep.SpilledStates))
	t.note("spill_bytes", rep.SpillBytes)
	t.note("workers", int64(cfg.Workers))
	t.note("budget", cfg.MemBudget)
	return rep, nil
}

// synthesize is core.SynthesizeCtx made of its staged library calls,
// in the same order and with the same defaults.
func synthesize(t *tracer, sys *spec.System, opts core.Options) (*core.Report, error) {
	if err := validate(t, sys, "input"); err != nil {
		return nil, err
	}
	if !opts.Bus.QuantizeRates && opts.Bus.Constraints == nil && opts.Bus.MaxWidth == 0 {
		def := busgen.DefaultConfig()
		def.Protocol = opts.Bus.Protocol
		def.Workers = opts.Bus.Workers
		opts.Bus = def
	}
	if opts.Workers != 0 {
		opts.Bus.Workers = opts.Workers
	}
	rep := &core.Report{}
	if len(sys.Channels) == 0 {
		created, err := call(t, "partition.DeriveChannels", func() ([]*spec.Channel, error) {
			return partition.DeriveChannels(sys)
		})
		if err != nil {
			return nil, err
		}
		rep.ChannelsDerived = created
	}
	if len(sys.Channels) == 0 {
		return nil, fmt.Errorf("system %s has no inter-module communication", sys.Name)
	}
	rep.Estimator, _ = call(t, "estimate.New", func() (*estimate.Estimator, error) { return estimate.New(sys.Channels), nil })
	buses := sys.Buses
	if len(buses) == 0 {
		var err error
		buses, err = call(t, "partition.GroupBuses", func() ([]*spec.Bus, error) {
			return partition.GroupBuses(sys, rep.Estimator, opts.Grouping, opts.Bus)
		})
		if err != nil {
			return nil, err
		}
	}
	for _, bus := range buses {
		br := core.BusReport{Bus: bus}
		if opts.ForceWidth > 0 {
			bus.Width = opts.ForceWidth
		} else if bus.Width == 0 {
			gen, err := call(t, "busgen.Generate", func() (*busgen.Result, error) {
				return busgen.Generate(bus.Channels, rep.Estimator, opts.Bus)
			})
			if err != nil {
				return nil, fmt.Errorf("bus %s: %w", bus.Name, err)
			}
			bus.Width = gen.Width
			br.Gen = gen
		}
		rep.Buses = append(rep.Buses, br)
	}
	baseCfg := protogen.Config{
		Protocol:      opts.Bus.Protocol,
		Arbitrate:     opts.Arbitrate,
		Robust:        opts.Robust,
		Parity:        opts.Parity,
		TimeoutClocks: opts.TimeoutClocks,
		MaxRetries:    opts.MaxRetries,
	}
	vcfg := verify.Config{
		MaxDepth:  opts.VerifyDepth,
		MaxStates: opts.VerifyStates,
		MaxDrops:  opts.VerifyDrops,
		Workers:   opts.Workers,
		MemBudget: opts.VerifyMemBudget,
		SpillDir:  opts.VerifySpillDir,
		Lossy:     opts.VerifyLossy,
	}
	if opts.Repair {
		return repairStaged(t, sys, rep, opts, baseCfg, vcfg)
	}
	for i := range rep.Buses {
		br := &rep.Buses[i]
		cfg := baseCfg
		cfg.BusSignalName = opts.BusSignalPrefix + br.Bus.Name
		ref, err := generate(t, sys, br.Bus, cfg)
		if err != nil {
			return nil, fmt.Errorf("bus %s: %w", br.Bus.Name, err)
		}
		br.Ref = ref
	}
	if err := validate(t, sys, "refined"); err != nil {
		return nil, err
	}
	if opts.Verify {
		vr, err := check(t, sys, abortConfig(rep, vcfg))
		if err != nil {
			return nil, err
		}
		rep.Verify = vr
	}
	return rep, nil
}

// abortConfig adds the refinement's abort counters to a checker config.
func abortConfig(rep *core.Report, cfg verify.Config) verify.Config {
	cfg.AbortVars = nil
	for _, br := range rep.Buses {
		cfg.AbortVars = append(cfg.AbortVars, br.Ref.AbortKeys()...)
	}
	return cfg
}

// repairStaged is core's repair branch: the CEGIS loop regenerates
// protocols through a Builder whose clone and generation calls are
// spans of their own, then the winning config refines sys.
func repairStaged(t *tracer, sys *spec.System, rep *core.Report, opts core.Options, base protogen.Config, vcfg verify.Config) (*core.Report, error) {
	build := func(cfg protogen.Config) (*spec.System, []string, error) {
		c, _ := call(t, "spec.Clone", func() (*spec.System, error) { return spec.Clone(sys), nil })
		var aborts []string
		for _, bus := range c.Buses {
			bcfg := cfg
			bcfg.BusSignalName = opts.BusSignalPrefix + bus.Name
			ref, err := generate(t, c, bus, bcfg)
			if err != nil {
				return nil, nil, err
			}
			aborts = append(aborts, ref.AbortKeys()...)
		}
		return c, aborts, nil
	}
	var cost *repair.CostModel
	if len(rep.Buses) > 0 {
		cost = &repair.CostModel{Channels: rep.Buses[0].Bus.Channels, Width: rep.Buses[0].Bus.Width, Est: rep.Estimator}
	}
	rres, err := call(t, "repair.Run", func() (*repair.Result, error) {
		return repair.Run(build, base, repair.Config{Verify: vcfg, Budget: opts.RepairBudget, MaxTier: opts.RepairTiers, Cost: cost})
	})
	if err != nil {
		return nil, err
	}
	t.note("iterations", int64(len(rres.Iterations)))
	for _, it := range rres.Iterations {
		t.note("states_total", int64(it.States))
	}
	rep.Repair, rep.Verify = rres, rres.Report
	for i := range rep.Buses {
		br := &rep.Buses[i]
		cfg := rres.Config
		cfg.BusSignalName = opts.BusSignalPrefix + br.Bus.Name
		if br.Ref, err = generate(t, sys, br.Bus, cfg); err != nil {
			return nil, err
		}
	}
	return rep, validate(t, sys, "refined")
}

func emit(t *tracer, sys *spec.System) string {
	text, _ := call(t, "vhdlgen.Emit", func() (string, error) { return vhdlgen.Emit(sys), nil })
	t.note("bytes", int64(len(text)))
	return text
}

// coreOptions lowers request options as the daemon does for one op.
func coreOptions(req *serve.Request, workers int) (core.Options, error) {
	o := req.Options
	p := spec.FullHandshake
	switch o.Protocol {
	case "", "full":
	case "half":
		p = spec.HalfHandshake
	default:
		return core.Options{}, fmt.Errorf("unknown protocol %q", o.Protocol)
	}
	if o.Workers == 0 {
		o.Workers = workers
	}
	return core.Options{
		Bus: busgen.Config{Protocol: p}, ForceWidth: o.ForceWidth,
		Arbitrate: o.Arbitrate, Robust: o.Robust, Parity: o.Parity,
		TimeoutClocks: o.TimeoutClocks, MaxRetries: o.MaxRetries, Workers: o.Workers,
		Verify: o.Verify || req.Op == serve.OpVerify, VerifyDepth: o.VerifyDepth,
		VerifyDrops: o.VerifyDrops, VerifyStates: o.VerifyStates,
		VerifyMemBudget: int64(o.VerifyMemBudgetMB) << 20, VerifyLossy: o.VerifyLossy,
		Repair: req.Op == serve.OpRepair, RepairBudget: o.RepairBudget, RepairTiers: o.RepairTiers,
	}, nil
}

// stagedRequest answers a daemon request with the staged calls. It
// returns the body the daemon would send, minus the fields that
// address the cache (op, spec hash, key, system name) and the VHDL
// digest, which the caller fills in from the returned VHDL text.
func stagedRequest(t *tracer, req *serve.Request, workers int) (*serve.ResultJSON, string, error) {
	sys, err := parse(t, req.Spec)
	if err != nil {
		return nil, "", err
	}
	res := &serve.ResultJSON{}
	if req.Op == serve.OpSweep {
		return res, "", sweep(t, sys, req.Options, workers, res)
	}
	opts, err := coreOptions(req, workers)
	if err != nil {
		return nil, "", err
	}
	rep, err := synthesize(t, sys, opts)
	if err != nil {
		return nil, "", err
	}
	for _, br := range rep.Buses {
		b := serve.BusJSON{Name: br.Bus.Name, Width: br.Bus.Width, Protocol: br.Bus.Protocol.String(), Lines: br.Bus.TotalLines()}
		for _, c := range br.Bus.Channels {
			b.Channels = append(b.Channels, c.Name)
		}
		res.Buses = append(res.Buses, b)
	}
	res.Verify = serve.NewVerifyJSON(rep.Verify)
	res.Repair = serve.NewRepairJSON(rep.Repair)
	return res, emit(t, sys), nil
}

// sweep is the daemon's sweep op made of its staged calls.
func sweep(t *tracer, sys *spec.System, o serve.Options, workers int, res *serve.ResultJSON) error {
	if len(sys.Channels) == 0 {
		if _, err := call(t, "partition.DeriveChannels", func() ([]*spec.Channel, error) {
			return partition.DeriveChannels(sys)
		}); err != nil {
			return err
		}
	}
	if len(sys.Channels) == 0 {
		return fmt.Errorf("system %s has no inter-module communication to sweep", sys.Name)
	}
	channels := sys.Channels
	if len(sys.Buses) > 0 && len(sys.Buses[0].Channels) > 0 {
		channels = sys.Buses[0].Channels
	}
	if o.Workers == 0 {
		o.Workers = workers
	}
	est, _ := call(t, "estimate.New", func() (*estimate.Estimator, error) { return estimate.New(sys.Channels), nil })
	pareto, err := call(t, "explore.Sweep", func() ([]explore.Point, error) {
		sp, err := explore.Sweep(channels, est, explore.Config{
			MinWidth: o.MinWidth, MaxWidth: o.MaxWidth, IncludeRobust: o.IncludeRobust, Workers: o.Workers,
		})
		if err != nil {
			return nil, err
		}
		for _, p := range sp.Points {
			res.Points = append(res.Points, pointJSON(p))
		}
		return sp.Pareto(), nil
	})
	if err != nil {
		return err
	}
	t.note("points", int64(len(res.Points)))
	for _, p := range pareto {
		res.Pareto = append(res.Pareto, pointJSON(p))
	}
	return nil
}

func pointJSON(p explore.Point) serve.PointJSON {
	return serve.PointJSON{
		Width: p.Width, Protocol: p.Protocol.String(), Robust: p.Robust, Parity: p.Parity,
		Pins: p.Pins, Feasible: p.Feasible, WorstExec: p.WorstExec, InterfaceArea: p.InterfaceArea,
	}
}

// ---- traced runs ----

// traceServe replays the first n inputs of a daemon workload: each goes
// to a fresh daemon twice (a miss, then a hit) and through the staged
// calls. The staged body must be byte-identical to the daemon's, which
// ran core.Synthesize on a fresh parse of the same text, and the hit
// byte-identical to the miss; verdicts must also pass checkReply.
func traceServe(e *env, t *tracer, n int, next func(i int) serve.Request, checkReply func(i int, res *serve.ResultJSON) error) error {
	// The daemon gives each job GOMAXPROCS / Workers engine workers.
	workers := 1
	return t.replay(e, func() error {
		d, err := startDaemon(1)
		if err != nil {
			return err
		}
		defer d.close()
		for i := 0; i < n; i++ {
			req := next(i)
			body := marshal(&req)
			var miss, hit reply
			var staged *serve.ResultJSON
			var vhdl string
			t.input(i, func() error {
				if miss, err = call(t, "serve.miss", func() (reply, error) { return d.query(body) }); err != nil {
					return err
				}
				if hit, err = call(t, "serve.hit", func() (reply, error) { return d.query(body) }); err != nil {
					return err
				}
				staged, vhdl, err = stagedRequest(t, &req, workers)
				return err
			}, func() error {
				res, err := miss.result("miss")
				if err != nil {
					return err
				}
				if hit.cache != "hit" || !bytes.Equal(hit.body, miss.body) {
					return fmt.Errorf("repeat request: X-Cache %q, body identical %t", hit.cache, bytes.Equal(hit.body, miss.body))
				}
				staged.Op, staged.SpecHash, staged.Key, staged.System = res.Op, res.SpecHash, res.Key, res.System
				if vhdl != "" {
					sum := sha256.Sum256([]byte(vhdl))
					staged.VHDLSHA256, staged.VHDLBytes = hex.EncodeToString(sum[:]), len(vhdl)
				}
				got, _ := json.Marshal(staged)
				if !bytes.Equal(append(got, '\n'), miss.body) {
					return fmt.Errorf("staged calls disagree with the daemon:\nstaged %s\ndaemon %s", got, miss.body)
				}
				return checkReply(i, res)
			})
		}
		return nil
	})
}

func (w *synthCold) traced(e *env, t *tracer) error {
	return traceServe(e, t, e.size.traceInputs,
		func(i int) serve.Request { return w.c.synthRequest(e.seed, i) },
		func(int, *serve.ResultJSON) error { return nil })
}

func (w *serveWarm) traced(e *env, t *tracer) error {
	return (&synthCold{w.daemonRunner}).traced(e, t)
}

// traced replays one whole block of the catalog, so the checker
// counters are the same at every seed.
func (w *verifyMixed) traced(e *env, t *tracer) error {
	n := len(checkCells)
	if e.size.traceInputs < n {
		n = e.size.traceInputs
	}
	return traceServe(e, t, n,
		func(i int) serve.Request { req, _ := w.c.checkRequest(e.seed, i); return req },
		func(i int, res *serve.ResultJSON) error {
			_, k := w.c.checkRequest(e.seed, i)
			return checkCells[k].check(res)
		})
}

// traced replays the timed run's proofs with the staged calls — parse,
// refine, prove in RAM at nproc workers — then proves the refined
// system in RAM at one worker (against nproc, the scaling pair) and
// under the memory budget at nproc workers. Every report must match.
func (w *proofRunner) traced(e *env, t *tracer) error {
	type proofRun struct {
		budget  int64
		workers int
	}
	runs := []proofRun{{0, e.nproc}, {0, 1}, {w.budget, e.nproc}}
	refine := w.proofOptions(0, e.nproc)
	refine.Verify = false
	return t.replay(e, func() error {
		var sys *spec.System
		var rep *core.Report
		for i, r := range runs {
			var vr *verify.Report
			t.input(i, func() error {
				var err error
				if i == 0 {
					if sys, err = parse(t, w.text); err != nil {
						return err
					}
					if rep, err = synthesize(t, sys, refine); err != nil {
						return err
					}
				}
				vr, err = check(t, sys, abortConfig(rep, verify.Config{
					MaxStates: 4_000_000, Workers: r.workers, MemBudget: r.budget, SpillDir: w.spillDir,
				}))
				return err
			}, func() error {
				if i == 0 {
					if err := sameVHDL(w.text, sys, refine); err != nil {
						return err
					}
				}
				if r.budget > 0 && vr.SpilledStates == 0 {
					return fmt.Errorf("proof under a %d-byte budget spilled nothing", r.budget)
				}
				return w.checkProof(vr)
			})
			runtime.GC()
			if rep == nil {
				return nil
			}
		}
		return nil
	})
}

// sameVHDL checks that the staged calls refined staged byte-identically
// to core.Synthesize with opts on a fresh parse of the same text.
func sameVHDL(text string, staged *spec.System, opts core.Options) error {
	fresh, err := hdl.Parse(text)
	if err != nil {
		return err
	}
	if _, err := core.Synthesize(fresh, opts); err != nil {
		return err
	}
	if vhdlgen.Emit(fresh) != vhdlgen.Emit(staged) {
		return fmt.Errorf("staged refinement of %s differs from core.Synthesize", fresh.Name)
	}
	return nil
}

// traced refines each variant with the staged calls, compiles and runs
// the golden simulation on the batch engine, and runs one campaign.
func (w *faultCampaign) traced(e *env, t *tracer) error {
	return t.replay(e, func() error {
		for k, v := range w.variants {
			runs := e.size.faultTrace
			if v.parity {
				runs /= 3
			}
			var sys *spec.System
			var frep *fault.Report
			t.input(k, func() error {
				var err error
				if sys, err = parse(t, v.text); err != nil {
					return err
				}
				rep, err := synthesize(t, sys, v.options(e.nproc))
				if err != nil {
					return err
				}
				eng, err := call(t, "sim.NewEngine", func() (*sim.Engine, error) { return sim.NewEngine(sys) })
				if err != nil {
					return err
				}
				if _, err := call(t, "sim.Run", func() (*sim.Result, error) { return eng.Run(sim.Config{}) }); err != nil {
					return err
				}
				br := rep.Buses[0]
				frep, err = allocCounted(t, "fault.Campaign", func() (*fault.Report, error) {
					return fault.Campaign(sys, br.Bus, fault.Config{
						Runs: runs, Seed: e.seed, AbortVars: br.Ref.AbortKeys(), Workers: campaignWorkers,
					})
				})
				if err != nil {
					return err
				}
				t.note("runs", int64(frep.Runs))
				if v.parity {
					t.note("parity", 1)
				}
				for o, n := range frep.Totals {
					t.note(o.String(), int64(n))
				}
				return nil
			}, func() error {
				if n := frep.Totals[fault.Deadlocked]; n != 0 {
					return fmt.Errorf("%s campaign: %d runs deadlocked", v.name, n)
				}
				return sameVHDL(v.text, sys, v.options(e.nproc))
			})
		}
		return nil
	})
}

// ---- per-layer metrics ----

// outcomes names the fault outcomes, as fault.Outcome.String spells them.
var outcomes = []string{"survived", "aborted-cleanly", "corrupted", "deadlocked"}

// layerOf maps a span name to its layer; "" marks the serve round
// trips and the request roots, which are not library layers.
var layerOf = map[string]string{
	"hdl.Parse":                "hdl",
	"spec.Hash":                "spec",
	"spec.Validate":            "spec",
	"spec.Clone":               "spec",
	"partition.DeriveChannels": "partition",
	"partition.GroupBuses":     "partition",
	"estimate.New":             "busgen",
	"busgen.Generate":          "busgen",
	"protogen.Generate":        "protogen",
	"vhdlgen.Emit":             "vhdlgen",
	"explore.Sweep":            "explore",
	"verify.Check":             "verify",
	"repair.Run":               "repair",
	"sim.NewEngine":            "sim",
	"sim.Run":                  "sim",
	"fault.Campaign":           "fault",
}

// layers are the library layers in flow order.
var layers = []string{"hdl", "spec", "partition", "busgen", "protogen", "vhdlgen", "explore", "verify", "repair", "sim", "fault"}

// perLayer lists the traced run's metrics. Every workload reports all
// of them; a layer the workload does not exercise reads 0. Shares are
// of the staged library time and add up to 100 across layers.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".pct", "%"})
	}
	defs = append(defs,
		metricDef{"unattributed.pct", "%"},
		metricDef{"hdl.parse_us", "us"},
		metricDef{"hdl.parse_mb_per_s", "MB/s"},
		metricDef{"spec.hash_us", "us"},
		metricDef{"protogen.generate_us", "us"},
		metricDef{"protogen.rewritten_stmts", "count"},
		metricDef{"vhdlgen.emit_mb_per_s", "MB/s"},
		metricDef{"vhdlgen.bytes", "count"},
		metricDef{"explore.points_per_s", "points/s"},
		metricDef{"explore.points", "count"},
		metricDef{"serve.miss_overhead_pct", "%"},
		metricDef{"serve.hit_per_s", "hits/s"},
		metricDef{"verify.states_per_s", "states/s"},
		metricDef{"verify.w1.states_per_s", "states/s"},
		metricDef{"verify.wmax.states_per_s", "states/s"},
		metricDef{"verify.spill.states_per_s", "states/s"},
		metricDef{"verify.states", "count"},
		metricDef{"verify.transitions", "count"},
		metricDef{"verify.violations", "count"},
		metricDef{"verify.spilled_states", "count"},
		metricDef{"verify.spill_mib", "MiB"},
		metricDef{"verify.bytes_per_state", "B/state"},
		metricDef{"verify.allocs_per_state", "allocs/state"},
		metricDef{"repair.iterations", "count"},
		metricDef{"repair.states_total", "count"},
	)
	for _, v := range []string{"robust", "parity"} {
		defs = append(defs,
			metricDef{"fault." + v + ".runs_per_s", "runs/s"},
			metricDef{"fault." + v + ".allocs_per_run", "allocs/run"})
		for _, o := range outcomes {
			defs = append(defs, metricDef{"fault." + v + "." + o, "count"})
		}
	}
	return append(defs,
		metricDef{"runtime.gc_cpu_frac", "frac"},
		metricDef{"runtime.alloc_mb_per_op", "MB/op"})
}()

// agg sums one group of spans.
type agg struct {
	calls  int
	ns     int64
	counts map[string]int64 // summed over every pass
	exact  map[string]int64 // summed over pass 0
}

func (a *agg) add(s *span) {
	if a.counts == nil {
		a.counts, a.exact = map[string]int64{}, map[string]int64{}
	}
	a.calls++
	a.ns += s.End - s.Start
	for k, v := range s.Counts {
		a.counts[k] += v
		if s.Pass == 0 {
			a.exact[k] += v
		}
	}
}

// rate is a count per second of the group's span time.
func (a *agg) rate(key string) float64 {
	if a.ns == 0 {
		return 0
	}
	return float64(a.counts[key]) / (float64(a.ns) / 1e9)
}

// perCall is the mean span time in microseconds.
func (a *agg) perCall() float64 {
	if a.calls == 0 {
		return 0
	}
	return float64(a.ns) / float64(a.calls) / 1e3
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics folds the spans into the per-layer metrics.
func (t *tracer) layerMetrics(e *env) map[string]float64 {
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = 0
	}
	byID := make(map[int]int, len(t.spans))
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		byID[s.ID] = i
		self[i] = s.End - s.Start
	}
	for _, s := range t.spans {
		if s.Parent != 0 {
			self[byID[s.Parent]] -= s.End - s.Start
		}
	}
	groups := map[string]*agg{}
	group := func(name string) *agg {
		if groups[name] == nil {
			groups[name] = &agg{}
		}
		return groups[name]
	}
	layerSelf := map[string]int64{}
	var lib, reqSelf, reqTotal, missNS, missLib int64
	reqLib := map[[2]int]int64{} // library self time per (pass, request)
	for i := range t.spans {
		s := &t.spans[i]
		group(s.Name).add(s)
		key := [2]int{s.Pass, s.Request}
		switch l := layerOf[s.Name]; {
		case s.Name == "request":
			reqSelf += self[i]
			reqTotal += s.End - s.Start
		case l != "":
			layerSelf[l] += self[i]
			lib += self[i]
			reqLib[key] += self[i]
		}
		if s.Name == "verify.Check" {
			c := s.Counts
			switch {
			case c["budget"] > 0:
				group("verify.spill").add(s)
			case c["workers"] == 1 && int(c["workers"]) == e.nproc:
				group("verify.w1").add(s)
				group("verify.wmax").add(s)
			case c["workers"] == 1:
				group("verify.w1").add(s)
			case int(c["workers"]) == e.nproc:
				group("verify.wmax").add(s)
			}
		}
		if s.Name == "fault.Campaign" {
			group([]string{"fault.robust", "fault.parity"}[s.Counts["parity"]]).add(s)
		}
	}
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == "serve.miss" {
			missNS += s.End - s.Start
			missLib += reqLib[[2]int{s.Pass, s.Request}]
		}
	}
	for _, l := range layers {
		m[l+".pct"] = 100 * ratio(float64(layerSelf[l]), float64(lib))
	}
	m["unattributed.pct"] = 100 * ratio(float64(reqSelf), float64(reqTotal))
	m["serve.miss_overhead_pct"] = 100 * ratio(float64(missNS-missLib), float64(missNS))
	g := group
	m["hdl.parse_us"] = g("hdl.Parse").perCall()
	m["hdl.parse_mb_per_s"] = g("hdl.Parse").rate("bytes") / 1e6
	m["spec.hash_us"] = g("spec.Hash").perCall()
	m["protogen.generate_us"] = g("protogen.Generate").perCall()
	m["protogen.rewritten_stmts"] = float64(g("protogen.Generate").exact["rewritten_stmts"])
	m["vhdlgen.emit_mb_per_s"] = g("vhdlgen.Emit").rate("bytes") / 1e6
	m["vhdlgen.bytes"] = float64(g("vhdlgen.Emit").exact["bytes"])
	m["explore.points_per_s"] = g("explore.Sweep").rate("points")
	m["explore.points"] = float64(g("explore.Sweep").exact["points"])
	if h := g("serve.hit"); h.ns > 0 {
		m["serve.hit_per_s"] = float64(h.calls) / (float64(h.ns) / 1e9)
	}
	v := g("verify.Check")
	m["verify.states_per_s"] = v.rate("states")
	m["verify.w1.states_per_s"] = g("verify.w1").rate("states")
	m["verify.wmax.states_per_s"] = g("verify.wmax").rate("states")
	m["verify.spill.states_per_s"] = g("verify.spill").rate("states")
	for _, k := range []string{"states", "transitions", "violations", "spilled_states"} {
		m["verify."+k] = float64(v.exact[k])
	}
	m["verify.spill_mib"] = float64(v.exact["spill_bytes"]) / (1 << 20)
	m["verify.bytes_per_state"] = ratio(float64(v.counts["alloc_bytes"]), float64(v.counts["states"]))
	m["verify.allocs_per_state"] = ratio(float64(v.counts["allocs"]), float64(v.counts["states"]))
	r := g("repair.Run")
	m["repair.iterations"] = float64(r.exact["iterations"])
	m["repair.states_total"] = float64(r.exact["states_total"])
	for _, name := range []string{"robust", "parity"} {
		f := g("fault." + name)
		m["fault."+name+".runs_per_s"] = f.rate("runs")
		m["fault."+name+".allocs_per_run"] = ratio(float64(f.counts["allocs"]), float64(f.counts["runs"]))
		for _, o := range outcomes {
			m["fault."+name+"."+o] = float64(f.exact[o])
		}
	}
	cpu, gc, alloc := runtimeCounters()
	m["runtime.gc_cpu_frac"] = ratio(gc-t.gc0, cpu-t.cpu0)
	m["runtime.alloc_mb_per_op"] = ratio(alloc-t.alloc0, float64(t.attempted)) / 1e6
	return m
}

// writeSpans writes the spans as JSON.
func (t *tracer) writeSpans(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// checkAttribution fails when any request leaves at least
// unattributedLimit percent of its time to no child span, in the median
// pass that replayed it. A span the replica forgot leaves the gap in
// every pass; a scheduler or GC pause that lands in a microsecond gap
// between two calls is a one-pass outlier.
func (t *tracer) checkAttribution() error {
	child := map[int]int64{}
	for _, s := range t.spans {
		child[s.Parent] += s.End - s.Start
	}
	shares := map[int][]float64{}
	for _, s := range t.spans {
		if d := s.End - s.Start; s.Name == "request" && d > 0 {
			shares[s.Request] = append(shares[s.Request], 100*float64(d-child[s.ID])/float64(d))
		}
	}
	for r, sh := range shares {
		if un := median(sh); un >= unattributedLimit {
			return fmt.Errorf("request %d: %.1f%% of its time unattributed", r, un)
		}
	}
	return nil
}

// unattributedLimit is the largest share of a request's time the
// staged calls may leave uncovered.
const unattributedLimit = 5.0
