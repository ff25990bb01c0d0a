package verify

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/hdl"
	"repro/internal/protogen"
	"repro/internal/spec"
)

// checkDigest flattens everything a verdict asserts — counts, depth,
// fingerprint, the full violation list and each counterexample's steps
// and loop start — into one comparable value. A counterexample is the
// path of parents from the violating node back to the initial state, so
// cex pins which arrival of a state became its node, not only how many
// nodes there are.
type checkDigest struct {
	states, depth int
	transitions   int64
	fingerprint   string
	incomplete    string
	violations    string
	cex           string
}

func digestOf(rep *Report) checkDigest {
	var vs []string
	var cex strings.Builder
	for _, v := range rep.Violations {
		vs = append(vs, v.Kind.String()+": "+v.Message)
		if v.Cex == nil {
			cex.WriteString("no counterexample\n")
			continue
		}
		fmt.Fprintf(&cex, "loop start %d\n", v.Cex.LoopStart)
		for _, s := range v.Cex.Steps {
			fmt.Fprintf(&cex, "%s|%s|%d|%s\n", s.Proc, s.Drop, s.Clocks, s.Desc)
		}
	}
	return checkDigest{
		states: rep.States, depth: rep.Depth, transitions: rep.Transitions,
		fingerprint: rep.Fingerprint, incomplete: rep.IncompleteReason,
		violations: strings.Join(vs, "\n"), cex: cex.String(),
	}
}

// sum is a short digest of the violation list and the counterexamples,
// for pinning a run's verdict in a table.
func (d checkDigest) sum() string {
	h := sha256.Sum256([]byte(d.violations + "\x00" + d.cex))
	return hex.EncodeToString(h[:8])
}

// TestSpillInvariance is the tentpole's acceptance pin: verdicts,
// state counts and the reachable-set fingerprint must be identical
// whether the store lives in RAM or spills under a budget far smaller
// than the state space, at every worker count. A sealed state is one
// fixed-size record, its row and checksum, so the spill size is a
// function of the sealed-state count alone.
func TestSpillInvariance(t *testing.T) {
	cfg := Config{MaxDrops: 1}
	run := func(budget int64, workers int) (checkDigest, *Report) {
		sys, _ := refinePQ(t, protogen.Config{Protocol: spec.FullHandshake})
		cfg := cfg
		cfg.Workers, cfg.MemBudget, cfg.SpillDir = workers, budget, t.TempDir()
		rep := mustCheck(t, sys, cfg)
		return digestOf(rep), rep
	}
	sys, _ := refinePQ(t, protogen.Config{Protocol: spec.FullHandshake})
	rec := int64(newTestMachine(t, sys, cfg).lay.size + recSum)
	ref, _ := run(0, 1)
	if ref.fingerprint == "" {
		t.Fatal("no fingerprint in the in-RAM report")
	}
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		if got, _ := run(0, workers); got != ref {
			t.Fatalf("in-RAM workers=%d diverged:\n%+v\nwant:\n%+v", workers, got, ref)
		}
		// A 4 KiB budget forces every sealed layer to disk.
		got, rep := run(4096, workers)
		if got != ref {
			t.Fatalf("spill workers=%d diverged:\n%+v\nwant:\n%+v", workers, got, ref)
		}
		if rep.SpilledStates == 0 || rep.SpillBytes == 0 {
			t.Fatalf("spill workers=%d: budget 4096 spilled nothing (%d states, %d bytes)",
				workers, rep.SpilledStates, rep.SpillBytes)
		}
		if rep.SpilledStates >= rep.States {
			t.Fatalf("spilled %d of %d states: the newest layer must stay hot", rep.SpilledStates, rep.States)
		}
		if want := int64(rep.SpilledStates) * rec; rep.SpillBytes != want {
			t.Fatalf("spill workers=%d: %d bytes for %d sealed states, want %d (%d B records)",
				workers, rep.SpillBytes, rep.SpilledStates, want, rec)
		}
	}
}

// TestSpillMatchesInRAMRobust runs the hardened protocol's exhaustive
// fault-free space (30,132 states with these timers) under a 1 MiB
// budget: a realistically deep exploration where nearly every layer
// seals and every hit on a sealed state is confirmed against its spill
// record, and still proves the same verdict. (No sealed node is re-opened
// here, so nothing re-expands from a spill record; TestDecodeRoundTrip
// and TestRowsMatchStates cover that.)
func TestSpillMatchesInRAMRobust(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second exploration")
	}
	run := func(budget int64) *Report {
		sys, _ := refinePQ(t, robustCfg(false))
		return mustCheck(t, sys, Config{MemBudget: budget, SpillDir: t.TempDir()})
	}
	ram, spill := run(0), run(1<<20)
	if d1, d2 := digestOf(ram), digestOf(spill); d1 != d2 {
		t.Fatalf("spill diverged:\n%+v\nwant:\n%+v", d2, d1)
	}
	if spill.IncompleteReason != "" {
		t.Fatalf("spill run did not complete: %s", spill.IncompleteReason)
	}
	if spill.SpilledStates < spill.States/2 {
		t.Fatalf("1 MiB budget spilled only %d of %d states", spill.SpilledStates, spill.States)
	}
}

// TestLossyMode: hash-compaction must report its omission probability,
// stay deterministic, and — on a space this small, where a 64-bit
// collision is astronomically unlikely — agree with the exact run.
func TestLossyMode(t *testing.T) {
	run := func(lossy bool) *Report {
		sys, _ := refinePQ(t, protogen.Config{Protocol: spec.FullHandshake})
		return mustCheck(t, sys, Config{
			MaxDrops: 1, MemBudget: 4096, SpillDir: t.TempDir(), Lossy: lossy,
		})
	}
	exact, lossy := run(false), run(true)
	if !lossy.Lossy || lossy.OmissionProb <= 0 || lossy.OmissionProb > 1 {
		t.Fatalf("lossy run reported Lossy=%v OmissionProb=%g", lossy.Lossy, lossy.OmissionProb)
	}
	if exact.Lossy || exact.OmissionProb != 0 {
		t.Fatalf("exact run reported Lossy=%v OmissionProb=%g", exact.Lossy, exact.OmissionProb)
	}
	if d1, d2 := digestOf(exact), digestOf(lossy); d1 != d2 {
		t.Fatalf("lossy diverged from exact on a collision-free space:\n%+v\nwant:\n%+v", d2, d1)
	}
	again := run(true)
	if digestOf(lossy) != digestOf(again) {
		t.Fatal("lossy mode is not deterministic across runs")
	}
}

// TestDecodeRoundTrip: every state of a real exploration must survive
// sealing and re-opening — the property that makes sealed states
// re-expandable at all. Each search runs under a budget that seals all
// but its newest layers, and every node, re-opened from its spill
// record or materialized from its hot row, must be the state replayed
// along its BFS path, keep the same locals unset, and step like it on
// every enabled process (checkStoredRows). No two stored nodes may be
// one state (sameState): the store keeps each state once, across both
// tiers. A record holds value ids, so a re-opened array keeps its Lo and
// a record its type, which indexing and field stores read; the array-lo
// case stores into A(4) of an array declared array(1 to 4).
func TestDecodeRoundTrip(t *testing.T) {
	const arrayLo = `
system ArrayLo is
  module m is
    behavior B is
    begin
      A(4) := A(1) + 7;
    end behavior;
  end module;
  module d is
    variable A : array (1 to 4) of integer;
  end module;
end system;`
	for _, tc := range []struct {
		name   string
		budget int64
		sys    func() *spec.System
		cfg    Config
	}{
		{"baseline-drop1", 4096, func() *spec.System {
			sys, _ := refinePQ(t, protogen.Config{Protocol: spec.FullHandshake})
			return sys
		}, Config{MaxDrops: 1}},
		{"robust-drop1", 4096, func() *spec.System {
			sys, _ := refinePQ(t, robustCfg(false))
			return sys
		}, Config{MaxDrops: 1, MaxStates: 5000}},
		{"array-lo", 1, func() *spec.System {
			sys, err := hdl.Parse(arrayLo)
			if err != nil {
				t.Fatal(err)
			}
			return sys
		}, Config{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sr := runStored(t, newTestMachine(t, tc.sys(), tc.cfg), tc.budget)
			states := checkStoredRows(t, sr)
			fresh := newInterner(newValueTable())
			row := make([]byte, sr.lay.size)
			byHash := make(map[uint64][]int)
			for j, st := range states {
				sr.lay.rowOf(fresh, row, st)
				h := sr.lay.hash(fresh, row)
				for _, i := range byHash[h] {
					if sameState(states[i], st) {
						t.Fatalf("nodes %d and %d are one state, stored twice", i, j)
					}
				}
				byHash[h] = append(byHash[h], j)
			}
		})
	}
}

// newTestSpill builds a spillStore for rows of rowSize bytes in a
// throwaway subdirectory (close removes the directory, so it must own
// it).
func newTestSpill(t *testing.T, rowSize int) *spillStore {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "spill")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	sp, err := newSpillStore(dir, rowSize)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sp.close)
	return sp
}

// TestSpillCrashRecovery: a torn or bit-flipped spill file must surface
// as an error, never as a silently wrong membership answer.
func TestSpillCrashRecovery(t *testing.T) {
	s := newRowStore()
	rowA, rowB := s.probe(intState(1)), s.probe(intState(2))
	const hA, hB = uint64(0x10), uint64(0x20)

	build := func(t *testing.T) *spillStore {
		sp := newTestSpill(t, s.lay.size)
		for j, r := range []struct {
			h   uint64
			row []byte
		}{{hA, rowA}, {hB, rowB}} {
			if err := sp.add(r.h, int32(j), r.row); err != nil {
				t.Fatal(err)
			}
		}
		if err := sp.finishBatch(); err != nil {
			t.Fatal(err)
		}
		return sp
	}
	lookup := func(sp *spillStore, h uint64, probe []byte) (int32, bool, error) {
		return sp.lookup(s.lay, s.seq.in, h, probe, make([]byte, sp.rec), false)
	}
	// rewrite applies f to the data file's bytes on disk.
	rewrite := func(t *testing.T, sp *spillStore, f func([]byte) []byte) {
		path := filepath.Join(sp.dir, "rows.dat")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, f(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("intact", func(t *testing.T) {
		sp := build(t)
		for _, tc := range []struct {
			h    uint64
			row  []byte
			node int32
		}{{hA, rowA, 0}, {hB, rowB, 1}} {
			node, ok, err := lookup(sp, tc.h, tc.row)
			if err != nil || !ok || node != tc.node {
				t.Fatalf("lookup(%x) = (%d, %v, %v), want (%d, true, nil)", tc.h, node, ok, err, tc.node)
			}
		}
		if _, ok, err := lookup(sp, hA, rowB); err != nil || ok {
			t.Fatalf("same-hash different-row probe = (%v, %v), want miss", ok, err)
		}
	})

	t.Run("bit-flip", func(t *testing.T) {
		sp := build(t)
		// Flip one byte of the second record's row: its checksum must
		// catch it.
		rewrite(t, sp, func(data []byte) []byte {
			data[sp.rec] ^= 0xff
			return data
		})
		if _, _, err := lookup(sp, hB, rowB); err == nil ||
			!strings.Contains(err.Error(), "corrupt") {
			t.Fatalf("corrupted record lookup err = %v, want checksum failure", err)
		}
	})

	t.Run("truncated", func(t *testing.T) {
		sp := build(t)
		// Tear the file mid-record, as a crashed writer would.
		rewrite(t, sp, func(data []byte) []byte { return data[:len(data)-5] })
		if _, _, err := lookup(sp, hB, rowB); err == nil {
			t.Fatal("truncated record lookup succeeded, want error")
		}
	})
}

// TestBloomNoFalseNegatives: the pre-filter may only suppress probes
// that would miss — everything added must report present.
func TestBloomNoFalseNegatives(t *testing.T) {
	b := newBloom(1000)
	for i := uint64(0); i < 1000; i++ {
		b.add(bloomMix(i))
	}
	for i := uint64(0); i < 1000; i++ {
		if !b.has(bloomMix(i)) {
			t.Fatalf("false negative for entry %d", i)
		}
	}
	// And it must actually filter: absent keys should mostly miss.
	misses := 0
	for i := uint64(10_000); i < 11_000; i++ {
		if !b.has(bloomMix(i)) {
			misses++
		}
	}
	if misses < 900 {
		t.Fatalf("bloom filtered only %d/1000 absent keys", misses)
	}
}

// FuzzSpillRecord seals generated rows, all interned into one value
// table, through the on-disk format — fixed-size records in node order,
// batched index merges, the Bloom filter and checksummed read-back —
// and asserts each row reads back byte-identically and each lookup
// finds a node holding the same state (sameState). Some rows are sealed
// under an earlier row's hash, so a lookup must confirm its candidates
// on their rows.
func FuzzSpillRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("several states sharing a long common middle section"))
	f.Add([]byte{0x01, 0x02, 0x45, 0x01, 0x02, 0x02, 0x11, 0x02, 0x22, 0xff, 0x00, 0x10})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &gsrc{data: data}
		fl := genLayout(g)
		lay := fl.lay
		in := newInterner(newValueTable())
		sp := newTestSpill(t, lay.size)
		n := 1 + int(g.byte()%6)
		type rec struct {
			st  *state
			h   uint64
			row []byte
		}
		var recs []rec
		for i := 0; i < n; i++ {
			st := genState(g, fl)
			row := make([]byte, lay.size)
			lay.rowOf(in, row, st)
			h := lay.hash(in, row)
			if i > 0 && g.byte()%4 == 0 {
				h = recs[0].h
			}
			if err := sp.add(h, int32(i), row); err != nil {
				t.Fatal(err)
			}
			recs = append(recs, rec{st, h, row})
			if g.byte()%4 == 0 {
				if err := sp.finishBatch(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := sp.finishBatch(); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, sp.rec)
		for i, r := range recs {
			row, err := sp.read(int32(i), buf)
			if err != nil {
				t.Fatalf("record %d: %v", i, err)
			}
			if !bytes.Equal(row, r.row) {
				t.Fatalf("record %d: round-trip mismatch\ngot:  %x\nwant: %x", i, row, r.row)
			}
			node, ok, err := sp.lookup(lay, in, r.h, r.row, buf, false)
			if err != nil {
				t.Fatalf("record %d: lookup: %v", i, err)
			}
			// Duplicate generated states may legitimately resolve to an
			// earlier node holding the same state.
			if !ok || !sameState(recs[node].st, r.st) {
				t.Fatalf("record %d: lookup = (%d, %v), want a node holding the same state", i, node, ok)
			}
		}
	})
}
