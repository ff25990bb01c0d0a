package sim

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/estimate"
	"repro/internal/spec"
)

// Config parameterizes a simulation run.
type Config struct {
	// MaxClocks aborts the run when simulated time exceeds it; zero
	// means the default of 10 million clocks.
	MaxClocks int64
	// MaxStepsPerSlice aborts a process that executes this many
	// compiled instructions without yielding (a runaway zero-delay
	// loop); zero means the default of 5 million.
	MaxStepsPerSlice int64
	// Cost, when non-nil, charges every executed statement its
	// cost-model clocks, so measured process times include computation
	// as the estimator models it: each assignment, each evaluated
	// branch or while condition, each loop iteration and each call.
	// The accumulated lag elapses as simulated time before the
	// process's next signal assignment, before its next wait (a pure
	// timed wait absorbs it into its deadline) and at its end. When
	// nil, computation is instantaneous and only explicit waits advance
	// time.
	Cost *estimate.CostModel
	// OnEvent, when non-nil, is called for every signal value change,
	// after the change takes effect.
	OnEvent func(now int64, sig *spec.Variable, val Value)
	// Mutate, when non-nil, intercepts every pending signal update just
	// before it commits, receiving the signal's current value and the
	// proposed next value. Fault injectors use it to corrupt, suppress
	// or delay wire transitions (see internal/fault). The hook must be
	// deterministic for reproducible runs (VerifyDeterministic replays a
	// run twice and reports divergence); it is never invoked for the
	// delayed re-commits it schedules itself. The hook must not retain
	// old or next (or their containers) past the call — the Engine
	// recycles record containers between deltas; Copy what must
	// outlive the hook, as Mutation.Later merging does.
	Mutate func(now int64, sig *spec.Variable, old, next Value) Mutation
	// Schedule, when non-nil, reorders the runnable processes of each
	// delta cycle. It receives the behavior names in the default
	// execution order (process creation order) and returns the names in
	// the desired order; names it omits run after the ones it lists, in
	// default order. Counterexample replay uses it to force a specific
	// interleaving (see internal/verify). Like Mutate, it must be
	// deterministic for reproducible runs.
	Schedule func(now int64, runnable []string) []string
	// FinalsOnly skips building Result.ProcessEnd and
	// Result.SignalEvents (both left nil) for callers that consume only
	// Clocks/Deltas/Steps/Finals — fault campaigns classify millions of
	// transient Results and the unread maps dominate their per-run
	// allocation.
	FinalsOnly bool
}

// Mutation is the outcome of a Config.Mutate call.
type Mutation struct {
	// Now replaces the proposed value for this commit; nil keeps the
	// proposed value. Returning a copy of the current value suppresses
	// the change entirely (no event fires).
	Now Value
	// Later, when non-nil and Delay > 0, is committed to the signal
	// Delay clocks from now, modeling a slow or glitching driver. For
	// record signals only the components that differ from this commit's
	// outcome are re-driven then, merged over the signal's then-current
	// value — the late transition must not revert unrelated wires that
	// moved during the delay.
	Later Value
	Delay int64
	// Done promises the hook will never mutate again this run (every
	// scheduled fault fired or expired); the kernel stops calling it.
	// Purely an optimization: a hook that keeps returning empty
	// Mutations without Done behaves identically, just slower. Done
	// must not accompany a mutation — it is only honored on a call
	// that returned no Now and no Later.
	Done bool
	// SkipSig promises the hook will never mutate THIS signal for the
	// rest of the run; the kernel stops calling it for commits of this
	// signal only. Like Done, purely an optimization and only honored
	// on a call that returned no Now and no Later.
	SkipSig bool
}

// Result summarizes a completed simulation.
type Result struct {
	// Clocks is the simulated time at which the last foreground
	// (non-server) process finished.
	Clocks int64
	// Deltas counts executed delta cycles.
	Deltas int64
	// Steps counts executed compiled instructions across all
	// processes. Under a cost model it includes the instructions that
	// charge and realize computation time, so it is not comparable
	// with a run without one.
	Steps int64
	// ProcessEnd maps each foreground behavior to its finish time.
	ProcessEnd map[string]int64
	// Finals holds the final values of all module-level variables,
	// keyed "module.variable".
	Finals map[string]Value
	// SignalEvents counts value-change events per signal name.
	SignalEvents map[string]int64
}

// Final returns the final value of a module variable, or nil.
func (r *Result) Final(module, variable string) Value {
	return r.Finals[module+"."+variable]
}

// DeadlockError reports a simulation that can make no further progress
// while foreground processes are still running.
type DeadlockError struct {
	Now     int64
	Waiting []string // "behavior: wait description"
	// Bus snapshots the control-line state of every global record
	// signal (the generated buses) at deadlock time — entries like
	// `B.START='1'` — so a deadlock caused by a lost or stuck strobe is
	// diagnosable from the error alone. DATA lines are included last.
	Bus []string
}

func (e *DeadlockError) Error() string {
	msg := fmt.Sprintf("sim: deadlock at clock %d; waiting: %s", e.Now, strings.Join(e.Waiting, "; "))
	if len(e.Bus) > 0 {
		msg += "; bus: " + strings.Join(e.Bus, " ")
	}
	return msg
}

// HangError reports a run that stopped making progress without
// deadlocking: simulated time passed Config.MaxClocks, the run passed
// the delta-cycle backstop (a livelock), or a process executed
// MaxStepsPerSlice instructions without yielding (a runaway zero-delay
// loop). A runaway reaches the caller inside the process-failure error,
// where errors.As finds it.
type HangError struct{ Msg string }

func (e *HangError) Error() string { return e.Msg }

func hangf(format string, args ...any) *HangError {
	return &HangError{Msg: fmt.Sprintf(format, args...)}
}

// maxDeltas bounds total delta cycles as a livelock backstop. It is a
// variable only so tests can reach it in a few thousand deltas.
var maxDeltas int64 = 50_000_000

// graceClocks is the settle window granted to server processes after the
// last foreground process finishes.
const graceClocks = 8

// procState is a process's scheduling state.
type procState int

const (
	stateReady procState = iota
	stateWaiting
	stateFinished
	stateError
)

// simError is panicked on runtime errors inside a process and recovered
// where the process runs, turning into a simulation error.
type simError struct{ err error }

func fail(format string, args ...any) {
	panic(simError{fmt.Errorf(format, args...)})
}

// mergeDelayed builds the value a delayed re-commit drives: for records,
// the current value with only the suppressed components (where val
// differs from base) overwritten; other shapes re-drive val wholesale.
func mergeDelayed(cur, base, val Value) Value {
	cv, okC := cur.(RecordVal)
	bv, okB := base.(RecordVal)
	vv, okV := val.(RecordVal)
	if !okC || !okB || !okV || len(cv.Fields) != len(vv.Fields) || len(bv.Fields) != len(vv.Fields) {
		return val
	}
	out := RecordVal{Type: cv.Type, Fields: append([]Value{}, cv.Fields...)}
	for i := range vv.Fields {
		if !vv.Fields[i].Equal(bv.Fields[i]) {
			out.Fields[i] = vv.Fields[i]
		}
	}
	return out
}

// busStateOf renders the value of every global record signal (the
// generated buses) field by field, control lines first, for deadlock
// diagnostics: get reports the current value of a signal variable, or
// ok=false if v is not a signal.
func busStateOf(sys *spec.System, get func(v *spec.Variable) (Value, bool)) []string {
	globals := append([]*spec.Variable{}, sys.Globals...)
	sort.Slice(globals, func(i, j int) bool { return globals[i].Name < globals[j].Name })
	var out []string
	for _, g := range globals {
		cur, ok := get(g)
		if !ok {
			continue
		}
		n := g.Name
		rv, ok := cur.(RecordVal)
		if !ok {
			continue
		}
		var data []string
		for i, f := range rv.Type.Fields {
			val := rv.Fields[i].String()
			// Single wires read better in VHDL bit style: '1', not "1".
			if vv, ok := rv.Fields[i].(VecVal); ok && vv.V.Width() == 1 {
				val = "'" + vv.V.String() + "'"
			}
			entry := fmt.Sprintf("%s.%s=%s", n, f.Name, val)
			if f.Name == "DATA" {
				data = append(data, entry)
			} else {
				out = append(out, entry)
			}
		}
		out = append(out, data...)
	}
	return out
}

// formatWait renders a suspended wait for deadlock diagnostics.
func formatWait(sens []string, hasCheck bool, condStr string, deadline int64, forever bool) string {
	var parts []string
	if len(sens) > 0 {
		parts = append(parts, "on "+strings.Join(sens, ","))
	}
	if hasCheck {
		parts = append(parts, "until "+condStr)
	}
	if deadline >= 0 {
		parts = append(parts, fmt.Sprintf("for t=%d", deadline))
	}
	if forever {
		parts = append(parts, "forever")
	}
	return strings.Join(parts, " ")
}
