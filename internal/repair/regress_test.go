package repair

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/protogen"
	"repro/internal/sim"
)

// The pinned lost-ack counterexample, frozen from the repair loop's
// first iteration on the hardened PQSolo workload (verify at drop
// budget 1): dropping P's third START transition — the fall that
// acknowledges the write's final word — lands in the serving process's
// commit window. The schedule priority is the trace's process order.
//
// These constants are the regression contract: if protogen's event
// ordering shifts they must be re-derived from a fresh counterexample
// (Counterexample.Format prints the drop ordinal and process order).
var (
	pinnedDrop = fault.Fault{
		Class:       fault.DropEvent,
		Signal:      "B",
		Field:       "START",
		AfterEvents: 3,
	}
	pinnedOrder = []string{"Xproc", "P", "MEMproc"}
)

const (
	pinnedMaxClocks = 10000
	corruptedX      = "0000000000000000"
	goldenX         = "0000000000100000"
	abortKey        = "comp1.B_ABORTS"
)

// finalStr renders a final value with the bit-vector quoting stripped.
func finalStr(res *sim.Result, key string) string {
	return strings.Trim(fmt.Sprint(res.Finals[key]), `"`)
}

// replayPinned regenerates PQSolo under cfg and replays the pinned
// counterexample through the simulator.
func replayPinned(t *testing.T, cfg protogen.Config) *sim.Result {
	t.Helper()
	sys, _, err := pqSoloBuilder()(cfg)
	if err != nil {
		t.Fatal(err)
	}
	order := append([]string(nil), pinnedOrder...)
	scfg := sim.Config{
		MaxClocks: pinnedMaxClocks,
		Schedule:  func(now int64, runnable []string) []string { return order },
	}
	fault.NewInjector([]fault.Fault{pinnedDrop}).Attach(&scfg)
	s, err := sim.NewEngine(sys)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(scfg)
	if err != nil {
		t.Fatalf("pinned replay did not terminate: %v", err)
	}
	return res
}

// TestRegressLostAckBeforeRepair pins the defect: on the unrepaired
// hardened protocol the dropped ack silently corrupts — X never
// receives its value, yet the abort counter stays at zero, so nothing
// downstream can know the delivery failed.
func TestRegressLostAckBeforeRepair(t *testing.T) {
	res := replayPinned(t, robustBase())
	if got := finalStr(res, "comp2.X"); got != corruptedX {
		t.Fatalf("comp2.X = %s, pinned corruption expects %s (counterexample drifted — re-derive the pinned fault)", got, corruptedX)
	}
	if got := finalStr(res, abortKey); got != "0" {
		t.Fatalf("%s = %s: the window is only dangerous because the failure is silent", abortKey, got)
	}
}

// TestRegressLostAckAfterRepair replays the identical fault through the
// repaired protocol: the commit now precedes the ack it acknowledges,
// so the same drop costs at most a retransmission and X arrives intact.
func TestRegressLostAckAfterRepair(t *testing.T) {
	cfg := robustBase()
	cfg.CommitAck = true
	cfg.ReleaseStale = true
	res := replayPinned(t, cfg)
	if got := finalStr(res, "comp2.X"); got != goldenX {
		t.Fatalf("comp2.X = %s after repair, want %s:\nfinals: %v", got, goldenX, res.Finals)
	}
}

// TestRegressPinnedMatchesModel guards the pinned constants against
// drift: the repair loop's first counterexample must still be the drop
// of B.START's fourth transition with the pinned process order, and its
// own replay must reproduce the corruption the model predicted.
func TestRegressPinnedMatchesModel(t *testing.T) {
	res := runLostAck(t)
	if len(res.Counterexamples) == 0 {
		t.Fatal("no counterexamples")
	}
	c := res.Counterexamples[0]
	if len(c.Drops) != 1 || c.Drops[0] != pinnedDrop {
		t.Fatalf("first counterexample drops %+v, pinned %+v", c.Drops, pinnedDrop)
	}
	var order []string
	seen := map[string]bool{}
	for _, s := range c.Steps {
		if s.Proc != "" && !seen[s.Proc] {
			seen[s.Proc] = true
			order = append(order, s.Proc)
		}
	}
	if fmt.Sprint(order) != fmt.Sprint(pinnedOrder) {
		t.Fatalf("counterexample process order %v, pinned %v", order, pinnedOrder)
	}
	rr, err := c.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Reproduced {
		t.Fatalf("model counterexample did not reproduce in the simulator: %s", rr.Outcome)
	}
}
