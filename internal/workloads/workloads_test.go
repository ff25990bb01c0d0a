package workloads

import (
	"testing"

	"repro/internal/busgen"
	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/explore"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/spec"
)

func runSim(t *testing.T, sys *spec.System) *sim.Result {
	t.Helper()
	s, err := sim.NewEngine(sys)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestAnsweringMachineUnrefined(t *testing.T) {
	sys := AnsweringMachine(3)
	res := runSim(t, sys)
	if got := res.Final("chip2", "MSG_COUNT").(sim.IntVal); got.V != 3 {
		t.Fatalf("MSG_COUNT = %d, want 3", got.V)
	}
	// speaker accumulated 3 plays of the greeting: 3 * sum(samples).
	sum := 0
	for i := 0; i < 256; i++ {
		sum += (i*7 + 13) % 256
	}
	if got := res.Final("chip1", "speaker_sum").(sim.IntVal); got.V != int64(3*sum) {
		t.Fatalf("speaker_sum = %d, want %d", got.V, 3*sum)
	}
	// first recorded sample of call 2: (0*3+2) mod 256 = 2 at slot 128.
	msgs := res.Final("chip2", "MSGS").(sim.ArrayVal)
	if msgs.Elems[128].(sim.VecVal).V.Uint64() != 2 {
		t.Fatalf("MSGS[128] = %s", msgs.Elems[128])
	}
}

func TestAnsweringMachineChannels(t *testing.T) {
	sys := AnsweringMachine(2)
	created, err := partition.DeriveChannels(sys)
	if err != nil {
		t.Fatal(err)
	}
	// PLAYBACK reads GREETING; RECORD writes MSGS, reads+writes
	// MSG_COUNT.
	if len(created) != 4 {
		t.Fatalf("derived %d channels: %v", len(created), created)
	}
}

func TestAnsweringMachineSynthesizedEquivalence(t *testing.T) {
	base := runSim(t, AnsweringMachine(2))

	sys := AnsweringMachine(2)
	if _, err := core.Synthesize(sys, core.Options{Grouping: partition.SingleBus}); err != nil {
		t.Fatal(err)
	}
	refined := runSim(t, sys)
	for _, key := range []string{"chip2.MSG_COUNT", "chip2.MSGS", "chip1.speaker_sum"} {
		if !base.Finals[key].Equal(refined.Finals[key]) {
			t.Errorf("%s differs after synthesis", key)
		}
	}
	if refined.Clocks <= base.Clocks {
		t.Error("refined answering machine not slower than abstract one")
	}
}

func TestEthernetUnrefined(t *testing.T) {
	sys := Ethernet(8)
	res := runSim(t, sys)
	stats := res.Final("chip2", "STATS").(sim.ArrayVal)
	get := func(i int) int64 { return stats.Elems[i].(sim.IntVal).V }
	if get(0) != 8 {
		t.Fatalf("frames seen = %d, want 8", get(0))
	}
	// Frames 3 and 6 have corrupted CRC -> 2 errors.
	if get(1) != 2 {
		t.Fatalf("crc errors = %d, want 2", get(1))
	}
	// The reject counter covers every non-accepted frame: the two
	// CRC-bad frames (3, 6) plus the two addressed elsewhere (4, 8).
	if get(2) != 4 {
		t.Fatalf("rejected = %d, want 4", get(2))
	}
	// Transmitted: 8 - 2 (crc) - 2 (filtered) = 4.
	if get(3) != 4 {
		t.Fatalf("transmitted = %d, want 4", get(3))
	}
	if res.Final("chip1", "txsum").(sim.IntVal).V == 0 {
		t.Fatal("txsum = 0, expected accumulated payload")
	}
}

func TestEthernetChannels(t *testing.T) {
	sys := Ethernet(4)
	created, err := partition.DeriveChannels(sys)
	if err != nil {
		t.Fatal(err)
	}
	// RX writes STATS, reads STATS; CRC reads+writes STATS; FILTER
	// reads STATION_ADDR, writes FRAMEBUF, writes RXLEN, reads+writes
	// STATS; TX reads FRAMEBUF, reads+writes STATS.
	if len(created) < 8 {
		t.Fatalf("derived %d channels", len(created))
	}
	if errs := sys.Validate(); len(errs) != 0 {
		t.Fatal(errs[0])
	}
}

func TestEthernetSynthesizedEquivalence(t *testing.T) {
	base := runSim(t, Ethernet(4))

	sys := Ethernet(4)
	if _, err := core.Synthesize(sys, core.Options{Grouping: partition.SingleBus}); err != nil {
		t.Fatal(err)
	}
	refined := runSim(t, sys)
	for _, key := range []string{"chip2.STATS", "chip2.FRAMEBUF", "chip1.txsum"} {
		if !base.Finals[key].Equal(refined.Finals[key]) {
			t.Errorf("%s differs after synthesis", key)
		}
	}
}

func TestPQBuilds(t *testing.T) {
	sys, bus := PQ()
	if errs := sys.Validate(); len(errs) != 0 {
		t.Fatal(errs[0])
	}
	if len(bus.Channels) != 4 || bus.Width != 8 {
		t.Fatalf("bus = %v", bus)
	}
	res := runSim(t, sys)
	mem := res.Final("comp2", "MEM").(sim.ArrayVal)
	if mem.Elems[5].(sim.VecVal).V.Uint64() != 39 {
		t.Fatalf("MEM(5) = %s", mem.Elems[5])
	}
}

func TestMeshBuilds(t *testing.T) {
	sys := Mesh(4)
	if errs := sys.Validate(); len(errs) != 0 {
		t.Fatal(errs[0])
	}
	if got := len(sys.Modules); got != 16 {
		t.Fatalf("modules = %d, want 16", got)
	}
	if got := len(sys.Channels); got != 32 {
		t.Fatalf("channels = %d, want 2 per tile = 32", got)
	}
	est := estimate.New(sys.Channels)
	for _, c := range sys.Channels {
		// 16-bit data + 6-bit address, 64 messages per channel.
		if c.MessageBits() != 22 {
			t.Fatalf("%s: message bits = %d, want 22", c.Name, c.MessageBits())
		}
		if got := est.Accesses(c); got != 64 {
			t.Fatalf("%s: accesses = %d, want 64", c.Name, got)
		}
	}
	for _, b := range sys.Behaviors() {
		if est.CompTime(b) <= 0 {
			t.Fatalf("%s: degenerate computation time", b.Name)
		}
	}
}

func TestMeshExploresAndGenerates(t *testing.T) {
	sys := Mesh(3)
	est := estimate.New(sys.Channels)
	sp, err := explore.Sweep(sys.Channels, est, explore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Points) != 44 { // widths 1..22 x 2 protocols
		t.Fatalf("points = %d, want 44", len(sp.Points))
	}
	if len(sp.Pareto()) == 0 {
		t.Fatal("empty Pareto front")
	}
	if _, err := busgen.Generate(sys.Channels, est, busgen.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestBadArgsPanic(t *testing.T) {
	for name, f := range map[string]func(){
		"answering": func() { AnsweringMachine(0) },
		"ethernet":  func() { Ethernet(100) },
		"mesh":      func() { Mesh(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}
