package repair

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/verify"
)

// cexTrace captures one simulator replay of a counterexample: the full
// event stream, time, final state and error. Steps is deliberately
// absent: the Engine counts compiled instructions, the classic kernel
// that recorded the golden counted source statements.
type cexTrace struct {
	events     []string
	clocks     int64
	deltas     int64
	finals     map[string]string
	sigEvents  map[string]int64
	processEnd map[string]int64
	err        string
}

func traceEngine(e *sim.Engine, cfg sim.Config) cexTrace {
	var tr cexTrace
	cfg.OnEvent = func(now int64, sig *spec.Variable, val sim.Value) {
		tr.events = append(tr.events, fmt.Sprintf("t=%d %s=%s", now, sig.Name, fullString(val)))
	}
	res, err := e.Run(cfg)
	if err != nil {
		tr.err = err.Error()
		return tr
	}
	tr.clocks = res.Clocks
	tr.deltas = res.Deltas
	tr.finals = make(map[string]string, len(res.Finals))
	for k, v := range res.Finals {
		tr.finals[k] = fullString(v)
	}
	tr.sigEvents = res.SignalEvents
	tr.processEnd = res.ProcessEnd
	return tr
}

// fullString renders a value completely: unlike ArrayVal.String it
// never elides the elements past index 8.
func fullString(v sim.Value) string {
	switch v := v.(type) {
	case sim.ArrayVal:
		parts := make([]string, len(v.Elems))
		for i, e := range v.Elems {
			parts[i] = fullString(e)
		}
		return fmt.Sprintf("%d:(%s)", v.Lo, strings.Join(parts, ", "))
	case sim.RecordVal:
		parts := make([]string, len(v.Fields))
		for i, f := range v.Fields {
			parts[i] = v.Type.Fields[i].Name + ": " + fullString(f)
		}
		return "{" + strings.Join(parts, ", ") + "}"
	}
	return v.String()
}

// render is the golden text of a trace: one line per signal event, then
// either the error or the result, maps in key order.
func (tr cexTrace) render() string {
	var b strings.Builder
	for _, e := range tr.events {
		fmt.Fprintf(&b, "event %s\n", e)
	}
	if tr.err != "" {
		fmt.Fprintf(&b, "error %s\n", tr.err)
		return b.String()
	}
	fmt.Fprintf(&b, "clocks %d\ndeltas %d\n", tr.clocks, tr.deltas)
	for _, k := range sortedKeys(tr.finals) {
		fmt.Fprintf(&b, "final %s %s\n", k, tr.finals[k])
	}
	for _, k := range sortedKeys(tr.sigEvents) {
		fmt.Fprintf(&b, "signal-events %s %d\n", k, tr.sigEvents[k])
	}
	for _, k := range sortedKeys(tr.processEnd) {
		fmt.Fprintf(&b, "process-end %s %d\n", k, tr.processEnd[k])
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// repairCexes returns every counterexample both cached repair runs
// produced: the lost-ack repair (one protocol shape) and the escalating
// run, whose counterexamples span the half handshake, the flushed half
// handshake, and the reselected full handshake.
func repairCexes(t *testing.T) []*verify.Counterexample {
	cexes := append([]*verify.Counterexample{}, runLostAck(t).Counterexamples...)
	cexes = append(cexes, runEscalation(t).Counterexamples...)
	if len(cexes) == 0 {
		t.Fatal("repair loops produced no counterexamples")
	}
	return cexes
}

// cexGolden holds the replays of repairCexes as the goroutine-per-process
// kernel this repository used to carry recorded them, before it was
// deleted. Nothing can regenerate the file; it is only compared against.
var cexGolden = filepath.Join("testdata", "cex_replays.classic")

// TestRepairCexCrossKernel replays every counterexample the repair loop
// produced — faulty, scheduled interleavings at the edge of the
// protocol's behavior — on the Engine and diffs the complete observable
// traces against the classic kernel's frozen replays. Repair
// counterexamples are exactly the adversarial inputs most likely to
// expose a kernel divergence, so the loop doubles as a differential
// test generator. Each counterexample also replays twice on one pooled
// Engine: the second run must not see injector or runner state leaked
// from the first. The configuration is rebuilt per run: the attached
// fault injector is stateful.
func TestRepairCexCrossKernel(t *testing.T) {
	want, err := os.ReadFile(cexGolden)
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for i, c := range repairCexes(t) {
		e, err := sim.NewEngine(c.System())
		if err != nil {
			t.Fatalf("cex %d: NewEngine: %v", i, err)
		}
		first := traceEngine(e, c.SimConfig()).render()
		if again := traceEngine(e, c.SimConfig()).render(); again != first {
			t.Fatalf("cex %d (%s): second run on the pooled engine diverges (reset leak)", i, c.Kind)
		}
		fmt.Fprintf(&got, "== cex %d %s\n%s", i, c.Kind, first)
	}
	w, g := strings.Split(string(want), "\n"), strings.Split(got.String(), "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			t.Fatalf("line %d: classic %q, engine %q", i+1, w[i], g[i])
		}
	}
	if len(w) != len(g) {
		t.Fatalf("classic replays have %d lines, engine %d", len(w), len(g))
	}
}
