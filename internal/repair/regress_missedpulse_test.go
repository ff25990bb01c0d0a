package repair

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/protogen"
	"repro/internal/sim"
	"repro/internal/spec"
)

// The pinned missed-pulse counterexample, frozen from the escalating
// repair run on the half-handshake PQSolo workload (verify at drop
// budget 1, after TurnFlush — the point where tier 1 is exhausted):
// dropping B.START's fifteenth transition erases a strobe pulse the
// half handshake never re-raises, so the MEM write silently vanishes.
// No local knob can fix this — only the tier-3 protocol reselection
// closes the window, which is exactly what the escalation ladder is
// for.
//
// These constants are the regression contract: if protogen's event
// ordering shifts they must be re-derived from a fresh counterexample
// (Counterexample.Format prints the drop ordinal and process order).
var (
	pinnedMissedDrop = fault.Fault{
		Class:       fault.DropEvent,
		Signal:      "B",
		Field:       "START",
		AfterEvents: 14,
	}
	pinnedMissedOrder = []string{"P", "Xproc", "MEMproc"}
)

// deliveredMEMWord is the one non-zero word the golden run writes into
// comp2.MEM; its presence in the final memory image is the delivery
// witness.
const deliveredMEMWord = "0000000000100111"

// halfFlushedBase is the configuration at the moment of escalation:
// the half handshake with its only applicable tier-1 knob applied.
func halfFlushedBase() protogen.Config {
	return protogen.Config{Protocol: spec.HalfHandshake, TurnFlush: true}
}

// escalatedConfig is halfFlushedBase after the full repair: the tier-3
// reselection (which clears TurnFlush and installs the escalation
// timers) plus the two tier-1 knobs the reselected protocol then
// needed.
func escalatedConfig() protogen.Config {
	cfg := halfFlushedBase()
	SelectFullHandshake.Apply(&cfg)
	CommitAck.Apply(&cfg)
	ReleaseStale.Apply(&cfg)
	return cfg
}

// replayMissedPulse regenerates PQSolo under cfg and replays the
// pinned missed-pulse counterexample through the simulator.
func replayMissedPulse(t *testing.T, cfg protogen.Config) *sim.Result {
	t.Helper()
	sys, _, err := pqSoloBuilder()(cfg)
	if err != nil {
		t.Fatal(err)
	}
	order := append([]string(nil), pinnedMissedOrder...)
	scfg := sim.Config{
		MaxClocks: pinnedMaxClocks,
		Schedule:  func(now int64, runnable []string) []string { return order },
	}
	fault.NewInjector([]fault.Fault{pinnedMissedDrop}).Attach(&scfg)
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

// TestRegressMissedPulseBeforeEscalation pins the defect: on the
// flushed half handshake the dropped strobe silently loses the MEM
// write — the run terminates as if nothing happened, but the word
// never arrives.
func TestRegressMissedPulseBeforeEscalation(t *testing.T) {
	res := replayMissedPulse(t, halfFlushedBase())
	if mem := fmt.Sprint(res.Finals["comp2.MEM"]); strings.Contains(mem, deliveredMEMWord) {
		t.Fatalf("comp2.MEM contains %s on the unescalated protocol (counterexample drifted — re-derive the pinned fault):\n%s", deliveredMEMWord, mem)
	}
}

// TestRegressMissedPulseAfterEscalation replays the identical fault
// through the escalated protocol: the full handshake's timeout/retry
// machinery re-raises the lost strobe, so the same drop costs at most
// a retransmission and the word lands in MEM.
func TestRegressMissedPulseAfterEscalation(t *testing.T) {
	res := replayMissedPulse(t, escalatedConfig())
	if mem := fmt.Sprint(res.Finals["comp2.MEM"]); !strings.Contains(mem, deliveredMEMWord) {
		t.Fatalf("comp2.MEM missing %s after escalation:\n%s", deliveredMEMWord, mem)
	}
}

// TestRegressMissedPinnedMatchesModel guards the pinned constants
// against drift: the escalating run's flushed-half iteration must
// still produce a data-corruption counterexample with the pinned drop
// and process order, and that counterexample's own replay must
// reproduce in the simulator.
func TestRegressMissedPinnedMatchesModel(t *testing.T) {
	res := runEscalation(t)
	for _, c := range res.Counterexamples {
		if len(c.Drops) != 1 || c.Drops[0] != pinnedMissedDrop {
			continue
		}
		var order []string
		seen := map[string]bool{}
		for _, s := range c.Steps {
			if s.Proc != "" && !seen[s.Proc] {
				seen[s.Proc] = true
				order = append(order, s.Proc)
			}
		}
		if fmt.Sprint(order) != fmt.Sprint(pinnedMissedOrder) {
			t.Fatalf("counterexample process order %v, pinned %v", order, pinnedMissedOrder)
		}
		rr, err := c.Replay()
		if err != nil {
			t.Fatal(err)
		}
		if !rr.Reproduced {
			t.Fatalf("model counterexample did not reproduce in the simulator: %s", rr.Outcome)
		}
		return
	}
	t.Fatalf("no counterexample with the pinned drop %+v (counterexample drifted — re-derive the pinned fault)", pinnedMissedDrop)
}
