package verify

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/vcd"
)

// Step is one transition of a counterexample trace: either one process
// running an atomic segment (Proc set) or quiescent time advancing
// (Clocks set).
type Step struct {
	Proc   string
	Drop   string // dropped bus line ("B.START"), "" for a fault-free step
	Clocks int64
	Desc   string // the signal changes the step committed
}

// Counterexample is a minimal (BFS-shortest) interleaving that drives
// the system into a violating state. It replays deterministically
// through the simulator: Drops translate the model's dropped
// transitions into fault.DropEvent faults scheduled by event count, and
// the process order becomes a sim.Config.Schedule priority.
type Counterexample struct {
	Kind    Kind
	Message string
	Steps   []Step
	// LoopStart is the index where a livelock lasso's cycle begins, -1
	// for finite traces.
	LoopStart int
	Drops     []fault.Fault

	sys       *spec.System
	order     []string // process priority, first appearance in the trace
	maxClocks int64
	golden    map[string]sim.Value
	abortKeys []string
}

// buildCex reconstructs the shortest path to a violation site and
// renders it by re-running the trace through the model. Per-field
// transition counts are accumulated exactly the way fault.Injector
// counts them in the simulator — including dropped transitions, which
// the injector counts even as it suppresses them — so each dropped
// step's ordinal becomes a replayable DropEvent fault.
func buildCex(m *machine, sr *searcher, site *violationSite, golden map[string]sim.Value, abortKeys []string, maxClocks int64) (*Counterexample, error) {
	steps := sr.pathTo(site.node)
	loopStart := -1
	if len(site.loop) > 0 {
		loopStart = len(steps)
		for _, e := range site.loop {
			steps = append(steps, e.via)
		}
	}
	c := &Counterexample{
		Kind: site.kind, Message: site.msg, LoopStart: loopStart,
		sys: m.sys, maxClocks: maxClocks, golden: golden, abortKeys: abortKeys,
	}
	st := m.initialState()
	ec := m.newExecCtx()
	counts := make(map[string]int64)
	seen := make(map[string]bool)
	for _, sp := range steps {
		next := m.newState()
		if sp.proc < 0 {
			clocks, ok := m.tick(st, next)
			if !ok {
				return nil, fmt.Errorf("trace desynchronized: tick step with no pending timer")
			}
			st = next
			c.Steps = append(c.Steps, Step{Clocks: clocks, Desc: fmt.Sprintf("%d clock(s) pass", clocks)})
			continue
		}
		p := int(sp.proc)
		prog := m.progs[p]
		res, err := m.exec(ec, st, next, p)
		if err != nil {
			return nil, err
		}
		dropName := ""
		if sp.drop >= 0 {
			d := m.drops[sp.drop]
			dropName = d.name
			c.Drops = append(c.Drops, fault.Fault{
				Class:       fault.DropEvent,
				Signal:      d.bus.sig.Name,
				Field:       d.bus.rec.Fields[d.field].Name,
				AfterEvents: counts[d.name],
			})
		}
		var parts []string
		for _, cev := range res.commits {
			if cev.bus == nil {
				parts = append(parts, fmt.Sprintf("%s: %s -> %s", m.gname[cev.slot], cev.old, cev.new))
				continue
			}
			ov, okO := cev.old.(sim.RecordVal)
			nv, okN := cev.new.(sim.RecordVal)
			if !okO || !okN {
				continue
			}
			for f := 0; f < len(cev.bus.rec.Fields) && f < 64; f++ {
				if cev.changed&(1<<uint(f)) == 0 {
					continue
				}
				name := cev.bus.sig.Name + "." + cev.bus.rec.Fields[f].Name
				txt := fmt.Sprintf("%s: %s -> %s", name, ov.Fields[f], nv.Fields[f])
				if name == dropName {
					txt += " (dropped on the wire)"
				}
				parts = append(parts, txt)
				counts[name]++
			}
		}
		if len(parts) == 0 {
			parts = append(parts, "(internal step)")
		}
		if !seen[prog.beh.Name] {
			seen[prog.beh.Name] = true
			c.order = append(c.order, prog.beh.Name)
		}
		if sp.drop >= 0 {
			alt := m.newState()
			m.dropVariant(st, next, alt, int(sp.drop))
			next = alt
		}
		st = next
		c.Steps = append(c.Steps, Step{Proc: prog.beh.Name, Drop: dropName, Desc: strings.Join(parts, ", ")})
	}
	return c, nil
}

// Format renders the trace for humans.
func (c *Counterexample) Format() string {
	var b strings.Builder
	for i, s := range c.Steps {
		if i == c.LoopStart {
			b.WriteString("      -- cycle repeats from here --\n")
		}
		who := "(time)"
		if s.Proc != "" {
			who = s.Proc
		}
		fmt.Fprintf(&b, "    %3d. %-14s %s\n", i+1, who, s.Desc)
	}
	for _, f := range c.Drops {
		fmt.Fprintf(&b, "    fault: %s\n", f)
	}
	return b.String()
}

// ReplayResult classifies one simulator replay of a counterexample.
type ReplayResult struct {
	// Reproduced reports that the simulator exhibited the violation the
	// model predicted. Driver conflicts are a model-level property (the
	// kernel merges same-delta writers before any observer runs), so
	// their replays drive the interleaving for waveform inspection but
	// report Reproduced = false.
	Reproduced bool
	Outcome    string
	Result     *sim.Result // nil when the run errored
}

// mkCfg builds a fresh replay configuration. A factory, not a value:
// the fault injector is stateful and sim.VerifyDeterministic needs an
// equivalent-but-fresh Config per run.
func (c *Counterexample) mkCfg() sim.Config {
	cfg := sim.Config{MaxClocks: c.maxClocks}
	if len(c.Drops) > 0 {
		fault.NewInjector(c.Drops).Attach(&cfg)
	}
	if len(c.order) > 0 {
		order := append([]string(nil), c.order...)
		cfg.Schedule = func(now int64, runnable []string) []string { return order }
	}
	return cfg
}

// SimConfig returns a fresh simulator configuration reproducing the
// counterexample: the dropped transitions as event-scheduled DropEvent
// faults and the trace's process order as the scheduling priority. Each
// call builds a new configuration (the attached fault injector is
// stateful), so callers replaying through several kernels get
// independent instances.
func (c *Counterexample) SimConfig() sim.Config { return c.mkCfg() }

// System returns the refined system the counterexample was found on.
func (c *Counterexample) System() *spec.System { return c.sys }

// Replay drives the counterexample through the simulator: the dropped
// transitions become event-scheduled DropEvent faults and the trace's
// process order becomes the scheduling priority. The replay is first
// validated by sim.VerifyDeterministic (two runs must agree bit for
// bit), then classified against the model's verdict.
func (c *Counterexample) Replay() (*ReplayResult, error) {
	if err := sim.VerifyDeterministic(c.sys, c.mkCfg); err != nil {
		return nil, fmt.Errorf("verify: replay is not deterministic: %w", err)
	}
	eng, err := sim.NewEngine(c.sys)
	if err != nil {
		return nil, err
	}
	res, runErr := eng.Run(c.mkCfg())
	r := &ReplayResult{Result: res}
	timedOut := runErr != nil && strings.Contains(runErr.Error(), "exceeded MaxClocks")
	switch c.Kind {
	case Deadlock:
		var dl *sim.DeadlockError
		if errors.As(runErr, &dl) {
			r.Reproduced = true
			r.Outcome = runErr.Error()
		} else if runErr != nil {
			r.Outcome = runErr.Error()
		} else {
			r.Outcome = "run completed without deadlock"
		}
	case Livelock:
		// A genuine livelock cannot terminate: the run hitting the clock
		// bound is the observable symptom.
		r.Reproduced = timedOut
		if runErr != nil {
			r.Outcome = runErr.Error()
		} else {
			r.Outcome = "run completed"
		}
	case Corruption:
		if runErr != nil {
			r.Outcome = runErr.Error()
			break
		}
		aborted := false
		for _, k := range c.abortKeys {
			if v, want := res.Finals[k], c.golden[k]; v != nil && want != nil && !v.Equal(want) {
				aborted = true
			}
		}
		var bad []string
		skip := make(map[string]bool, len(c.abortKeys))
		for _, k := range c.abortKeys {
			skip[k] = true
		}
		keys := make([]string, 0, len(c.golden))
		for k := range c.golden {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if skip[k] {
				continue
			}
			if got, want := res.Finals[k], c.golden[k]; got == nil || !got.Equal(want) {
				bad = append(bad, fmt.Sprintf("%s = %v, want %s", k, got, want))
			}
		}
		if len(bad) > 0 && !aborted {
			r.Reproduced = true
			r.Outcome = "silent data corruption: " + strings.Join(bad, "; ")
		} else if aborted {
			r.Outcome = "run aborted cleanly"
		} else {
			r.Outcome = "finals match the golden run"
		}
	case DriverConflict:
		r.Outcome = "driver conflicts are checked on the model (same-delta writers merge in the kernel); inspect the waveform"
		if runErr != nil {
			r.Outcome += "; run ended: " + runErr.Error()
		}
	}
	return r, nil
}

// WriteVCD replays the counterexample with a VCD waveform writer
// attached, dumping every signal change up to the violating state (or
// the replay bound).
func (c *Counterexample) WriteVCD(w io.Writer) error {
	vw, err := vcd.NewWriter(w, c.sys)
	if err != nil {
		return err
	}
	cfg := c.mkCfg()
	cfg.OnEvent = vw.OnEvent
	eng, err := sim.NewEngine(c.sys)
	if err != nil {
		return err
	}
	res, runErr := eng.Run(cfg)
	end := c.maxClocks
	var dl *sim.DeadlockError
	switch {
	case runErr == nil:
		end = res.Clocks
	case errors.As(runErr, &dl):
		end = dl.Now
	}
	return vw.Close(end)
}
