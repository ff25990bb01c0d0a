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
	"repro/internal/sim"
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
// than the state space, at every worker count.
func TestSpillInvariance(t *testing.T) {
	run := func(budget int64, workers int) (checkDigest, *Report) {
		sys, _ := refinePQ(t, protogen.Config{Protocol: spec.FullHandshake})
		rep := mustCheck(t, sys, Config{
			MaxDrops: 1, Workers: workers,
			MemBudget: budget, SpillDir: t.TempDir(),
		})
		return digestOf(rep), rep
	}
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
	}
}

// TestSpillMatchesInRAMRobust runs the hardened protocol's exhaustive
// fault-free space (30,132 states with these timers) under a 1 MiB
// budget: a realistically deep exploration where nearly every layer
// seals and every hit on a sealed state is confirmed against its spill
// record, and still proves the same verdict. (No sealed node is re-opened
// here, so nothing is re-expanded through the decode path;
// TestDecodeRoundTrip covers that.)
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
// encode → decode → re-encode byte-identically — the property that
// makes sealed states re-expandable at all — the decoded state must be
// the same state (sameState), and it must step like the original: every
// enabled process reaches a successor with the same key, or fails with
// the same error. No two stored states may share a key: the store keeps
// each state once. The key leaves out each array's Lo and each record's
// type, which field stores and indexing read, so a decoder that
// restored neither failed most steps ("store to unknown field ID"). The
// array-lo case keys an array declared array(1 to 4) and stores into
// A(4).
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
		name string
		sys  func() *spec.System
		cfg  Config
	}{
		{"baseline-drop1", func() *spec.System {
			sys, _ := refinePQ(t, protogen.Config{Protocol: spec.FullHandshake})
			return sys
		}, Config{MaxDrops: 1}},
		{"robust-drop1", func() *spec.System {
			sys, _ := refinePQ(t, robustCfg(false))
			return sys
		}, Config{MaxDrops: 1, MaxStates: 5000}},
		{"array-lo", func() *spec.System {
			sys, err := hdl.Parse(arrayLo)
			if err != nil {
				t.Fatal(err)
			}
			return sys
		}, Config{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newTestMachine(t, tc.sys(), tc.cfg)
			sr := newSearcher(m)
			if err := sr.run(); err != nil {
				t.Fatal(err)
			}
			ec := m.newExecCtx()
			dec, a, b := m.newState(), m.newState(), m.newState()
			steps := 0
			seen := make(map[string]int)
			for i, st := range storedStates(t, sr) {
				key := st.encodeInto(nil)
				if j, dup := seen[string(key)]; dup {
					t.Fatalf("states %d and %d are one state, stored twice", j, i)
				}
				seen[string(key)] = i
				if err := decodeState(m, key, dec); err != nil {
					t.Fatalf("state %d: decode: %v", i, err)
				}
				if got := dec.encodeInto(nil); !bytes.Equal(got, key) {
					t.Fatalf("state %d: re-encoded key differs\ngot:  %x\nwant: %x", i, got, key)
				}
				if !sameState(dec, st) {
					t.Fatalf("state %d: decoded to another state", i)
				}
				for g, v := range st.g {
					if av, ok := v.(sim.ArrayVal); ok && dec.g[g].(sim.ArrayVal).Lo != av.Lo {
						t.Fatalf("state %d: global %d decoded with Lo %d, want %d", i, g, dec.g[g].(sim.ArrayVal).Lo, av.Lo)
					}
				}
				mask, err := m.enabledMask(ec, st)
				if err != nil {
					t.Fatal(err)
				}
				for p := range m.progs {
					if mask&(1<<uint(p)) == 0 {
						continue
					}
					steps++
					want, wantErr := stepKey(m, ec, st, a, p)
					got, gotErr := stepKey(m, ec, dec, b, p)
					if gotErr != wantErr || !bytes.Equal(got, want) {
						t.Fatalf("state %d, process %s: decoded state stepped to (%x, %q), original to (%x, %q)",
							i, m.progs[p].beh.Name, got, gotErr, want, wantErr)
					}
				}
			}
			if steps == 0 {
				t.Fatal("no enabled process stepped")
			}
		})
	}
}

// stepKey runs process p from `from` into `to` and returns the
// successor's key, or the step's error.
func stepKey(m *machine, ec *execCtx, from, to *state, p int) ([]byte, string) {
	if _, err := m.exec(ec, from, to, p); err != nil {
		return nil, err.Error()
	}
	return to.encodeInto(nil), ""
}

// newTestSpill builds a spillStore in a throwaway subdirectory (close
// removes the directory, so it must own it).
func newTestSpill(t *testing.T) *spillStore {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "spill")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	sp, err := newSpillStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sp.close)
	return sp
}

// spillAdd seals one key, failing the test on error.
func spillAdd(t *testing.T, sp *spillStore, h uint64, node int32, layer int, key []byte) {
	t.Helper()
	if err := sp.add(h, node, layer, key); err != nil {
		t.Fatal(err)
	}
}

// TestSpillCrashRecovery: a torn or bit-flipped spill file must surface
// as an error, never as a silently wrong membership answer.
func TestSpillCrashRecovery(t *testing.T) {
	keyA := []byte("key-aaaaaaaaaaaaaaaaaaaaaaaa")
	keyB := []byte("key-bbbbbbbbbbbbbbbbbbbbbbbb")
	// Same low 4 hash bits → same shard; B is layer 0's delta against A.
	const hA, hB = uint64(0x10), uint64(0x20)

	build := func(t *testing.T) *spillStore {
		sp := newTestSpill(t)
		spillAdd(t, sp, hA, 0, 0, keyA)
		spillAdd(t, sp, hB, 1, 0, keyB)
		if err := sp.finishBatch(); err != nil {
			t.Fatal(err)
		}
		return sp
	}

	t.Run("intact", func(t *testing.T) {
		sp := build(t)
		for _, tc := range []struct {
			h    uint64
			key  []byte
			node int32
		}{{hA, keyA, 0}, {hB, keyB, 1}} {
			node, ok, err := sp.lookup(tc.h, tc.key, false)
			if err != nil || !ok || node != tc.node {
				t.Fatalf("lookup(%x) = (%d, %v, %v), want (%d, true, nil)", tc.h, node, ok, err, tc.node)
			}
		}
		if _, ok, err := sp.lookup(hA, keyB, false); err != nil || ok {
			t.Fatalf("same-hash different-key probe = (%v, %v), want miss", ok, err)
		}
	})

	t.Run("bit-flip", func(t *testing.T) {
		sp := build(t)
		// Flip one byte inside the second record's body: its checksum
		// must catch it.
		path := filepath.Join(sp.dir, "shard00.dat")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-3] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := sp.lookup(hB, keyB, false); err == nil ||
			!strings.Contains(err.Error(), "corrupt") {
			t.Fatalf("corrupted record lookup err = %v, want checksum failure", err)
		}
	})

	t.Run("truncated", func(t *testing.T) {
		sp := build(t)
		// Tear the file mid-record, as a crashed writer would.
		path := filepath.Join(sp.dir, "shard00.dat")
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, fi.Size()-5); err != nil {
			t.Fatal(err)
		}
		if _, _, err := sp.lookup(hB, keyB, false); err == nil {
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

// FuzzSpillRecord drives generated state keys through the on-disk
// record format — full records, delta compression against per-layer
// bases, index merge, Bloom filter and checksummed read-back — and
// asserts each key round-trips byte-identically and each lookup finds a
// node holding the same state (sameState).
func FuzzSpillRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("several states sharing a long common middle section"))
	f.Add([]byte{0x01, 0x02, 0x45, 0x01, 0x02, 0x02, 0x11, 0x02, 0x22, 0xff, 0x00, 0x10})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &gsrc{data: data}
		lay := genLayout(g)
		sp := newTestSpill(t)
		n := 1 + int(g.byte()%6)
		type rec struct {
			st  *state
			h   uint64
			key []byte
		}
		var recs []rec
		for i := 0; i < n; i++ {
			st := genState(g, lay)
			key := st.encodeInto(nil)
			h := fnvAppend(fnvOffset64, key)
			layer := int(g.byte() % 3)
			if err := sp.add(h, int32(i), layer, key); err != nil {
				t.Fatal(err)
			}
			recs = append(recs, rec{st, h, key})
			if g.byte()%4 == 0 {
				if err := sp.finishBatch(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := sp.finishBatch(); err != nil {
			t.Fatal(err)
		}
		for i, r := range recs {
			loc := sp.locs[i]
			key, err := sp.shards[loc.shard()].readRecord(loc.off(), 0)
			if err != nil {
				t.Fatalf("record %d: %v", i, err)
			}
			if !bytes.Equal(key, r.key) {
				t.Fatalf("record %d: round-trip mismatch\ngot:  %x\nwant: %x", i, key, r.key)
			}
			node, ok, err := sp.lookup(r.h, r.key, false)
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
