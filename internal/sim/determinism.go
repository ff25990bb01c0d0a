package sim

import (
	"fmt"

	"repro/internal/spec"
)

// VerifyDeterministic compiles the system once and runs it twice under
// configurations built by mkCfg, failing if the two runs diverge in any
// observable way: signal event streams, final clock, final variable
// values, or error outcome. The Config.Mutate and Config.Schedule hooks
// are documented as required-deterministic but nothing in the kernel
// can enforce that; this is the enforcement — a debug mode for tests
// and for validating counterexample replays (internal/verify).
//
// mkCfg is a factory, not a Config value, because hooks are often
// stateful (a fault injector counts events as it fires): replaying with
// the *same* hook closure would make the second run diverge for the
// wrong reason. Each invocation must return a freshly constructed,
// equivalent Config.
func VerifyDeterministic(sys *spec.System, mkCfg func() Config) error {
	e, err := NewEngine(sys)
	if err != nil {
		return fmt.Errorf("sim: cannot verify determinism: %w", err)
	}
	a := recordRun(e, mkCfg())
	b := recordRun(e, mkCfg())
	if a.err != b.err {
		return fmt.Errorf("sim: nondeterministic outcome: run 1 %s, run 2 %s", orOK(a.err), orOK(b.err))
	}
	for i := 0; i < len(a.events) && i < len(b.events); i++ {
		if a.events[i] != b.events[i] {
			return fmt.Errorf("sim: nondeterministic event stream at event %d: run 1 saw %s, run 2 saw %s",
				i, a.events[i], b.events[i])
		}
	}
	if len(a.events) != len(b.events) {
		return fmt.Errorf("sim: nondeterministic event stream: run 1 had %d events, run 2 had %d",
			len(a.events), len(b.events))
	}
	if a.clocks != b.clocks {
		return fmt.Errorf("sim: nondeterministic duration: %d clocks vs %d clocks", a.clocks, b.clocks)
	}
	for k, v := range a.finals {
		if b.finals[k] != v {
			return fmt.Errorf("sim: nondeterministic final value %s: %s vs %s", k, v, b.finals[k])
		}
	}
	if len(a.finals) != len(b.finals) {
		return fmt.Errorf("sim: nondeterministic finals: %d values vs %d", len(a.finals), len(b.finals))
	}
	return nil
}

type runTrace struct {
	events []string
	clocks int64
	finals map[string]string
	err    string
}

func recordRun(e *Engine, cfg Config) runTrace {
	var t runTrace
	prev := cfg.OnEvent
	cfg.OnEvent = func(now int64, sig *spec.Variable, val Value) {
		t.events = append(t.events, fmt.Sprintf("t=%d %s=%s", now, sig.Name, val))
		if prev != nil {
			prev(now, sig, val)
		}
	}
	res, err := e.Run(cfg)
	if err != nil {
		t.err = err.Error()
		return t
	}
	t.clocks = res.Clocks
	t.finals = make(map[string]string, len(res.Finals))
	for k, v := range res.Finals {
		t.finals[k] = v.String()
	}
	return t
}

func orOK(s string) string {
	if s == "" {
		return "succeeded"
	}
	return "failed: " + s
}
