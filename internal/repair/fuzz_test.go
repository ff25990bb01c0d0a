package repair

import (
	"testing"

	"repro/internal/protogen"
	"repro/internal/sim"
	"repro/internal/spec"
)

// FuzzRepairMutations drives random subsets of the repair grammar over
// random base configurations and asserts the grammar's safety contract:
// any sequence of Applicable mutations leaves the config valid
// (Config.Validate accepts it), the generator still synthesizes a
// refined system from it, and that system still builds an executable
// simulation. An inapplicable mutation must be either a guarded no-op
// (the protocol-selection escalation on a config that already selected
// the full handshake) or exactly what Validate rejects. The committed
// corpus pins the combinations the repair loop actually reaches: the
// headline CommitAck+ReleaseStale pair, the full grammar with
// arbitration and parity, TurnFlush on the half handshake, the tier-2
// arbitration pair, and the escalating TurnFlush→SelectFullHandshake
// path.
func FuzzRepairMutations(f *testing.F) {
	// mask selects grammar members by bit index; the remaining arguments
	// shape the base config.
	f.Add(byte(0x03), false, true, byte(8), byte(2), false, false)  // headline repair
	f.Add(byte(0xff), false, true, byte(8), byte(2), true, true)    // whole grammar, parity + arbitration
	f.Add(byte(0x10), true, false, byte(0), byte(0), false, false)  // TurnFlush on the half handshake
	f.Add(byte(0x00), false, true, byte(16), byte(3), false, false) // no mutations
	f.Add(byte(0x0c), false, true, byte(4), byte(1), false, false)  // AckSeq+EpochResync
	f.Add(byte(0x60), false, true, byte(8), byte(2), false, true)   // GrantHold+BusPark (tier 2)
	f.Add(byte(0x90), true, false, byte(0), byte(0), false, false)  // TurnFlush then escalation (tier 3)
	f.Fuzz(func(t *testing.T, mask byte, half, robust bool, timeout, retries byte, parity, arbitrate bool) {
		cfg := protogen.Config{Protocol: spec.FullHandshake, Robust: robust, Parity: parity, Arbitrate: arbitrate}
		if half {
			cfg.Protocol = spec.HalfHandshake
		}
		if robust {
			cfg.TimeoutClocks = int64(timeout%32) + 4
			cfg.MaxRetries = int(retries % 4)
		}
		if cfg.Validate() != nil {
			t.Skip("invalid base config")
		}
		for _, m := range Grammar() {
			if mask&(1<<uint(m)) == 0 {
				continue
			}
			if m.Applicable(cfg) {
				m.Apply(&cfg)
				if !m.Applied(cfg) {
					t.Fatalf("%s not applied after Apply", m)
				}
			} else {
				// An inapplicable mutation must stay inapplicable as a
				// no-op: either Apply changes nothing (a guarded
				// escalation whose precondition fails), or applying it
				// anyway is what Validate rejects.
				probe := cfg
				m.Apply(&probe)
				if probe != cfg && probe.Validate() == nil {
					t.Fatalf("%s reported inapplicable on a config it mutates and validates against: %+v", m, cfg)
				}
			}
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("applicable mutations composed into an invalid config %+v: %v", cfg, err)
		}
		sys, abortKeys, err := pqSoloBuilder()(cfg)
		if err != nil {
			t.Fatalf("mutated config %+v no longer synthesizes: %v", cfg, err)
		}
		if cfg.Robust && cfg.Protocol == spec.FullHandshake && len(abortKeys) == 0 {
			t.Fatalf("robust generation lost its abort counters: %+v", cfg)
		}
		if _, err := sim.NewEngine(sys); err != nil {
			t.Fatalf("refined system under %+v is not executable: %v", cfg, err)
		}
	})
}
