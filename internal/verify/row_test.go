package verify

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/protogen"
	"repro/internal/spec"
)

// replayStored rebuilds, for every stored node, the state the search
// built its row from: node j is its parent's state stepped along j's
// recorded transition (BFS admits a parent before its children), so the
// replay needs no row at all.
func replayStored(t *testing.T, sr *searcher) []*state {
	t.Helper()
	m := sr.m
	ec := m.newExecCtx()
	states := make([]*state, sr.count())
	states[0] = m.initialState()
	for j := 1; j < len(states); j++ {
		n := sr.node(int32(j))
		from, st := states[n.parent], m.newState()
		if n.via.proc < 0 {
			if _, ok := m.tick(from, st); !ok {
				t.Fatalf("node %d: tick with no pending timer", j)
			}
		} else {
			if _, err := m.exec(ec, from, st, int(n.via.proc)); err != nil {
				t.Fatalf("node %d: %v", j, err)
			}
			if n.via.drop >= 0 {
				alt := m.newState()
				m.dropVariant(from, st, alt, int(n.via.drop))
				st = alt
			}
		}
		states[j] = st
	}
	return states
}

// TestRowsMatchStates: a stored row holds exactly the state it was
// built from. For every state of a bounded robust drop-1 search, the
// materialized row keys as the state replayed along its BFS path, the
// stored row hashes as that state's row interned into a fresh table
// (whose ids differ) does, and every enabled process steps from both to
// the same successor key.
func TestRowsMatchStates(t *testing.T) {
	sys, ref := refinePQ(t, robustCfg(false))
	m := newTestMachine(t, sys, Config{MaxDrops: 1, MaxStates: 20_000, AbortVars: ref.AbortKeys()})
	sr := newSearcher(m)
	if err := sr.run(); err != nil {
		t.Fatal(err)
	}
	want := replayStored(t, sr)
	ec := m.newExecCtx()
	fresh := newInterner(newValueTable())
	freshRow := make([]byte, sr.lay.size)
	row, a, b := m.newState(), m.newState(), m.newState()
	steps := 0
	for j, st := range want {
		if err := sr.loadState(sr.seq.in, int32(j), row); err != nil {
			t.Fatal(err)
		}
		key := st.encodeInto(nil)
		if got := row.encodeInto(nil); !bytes.Equal(got, key) {
			t.Fatalf("node %d: row keys as\n%x\nwant\n%x", j, got, key)
		}
		stored := sr.rows.at(j)
		if got := sr.lay.appendKey(sr.seq.in, nil, stored); !bytes.Equal(got, key) {
			t.Fatalf("node %d: appendKey differs from encodeInto", j)
		}
		sr.lay.rowOf(fresh, freshRow, st)
		if got, want := sr.lay.hash(sr.seq.in, stored), sr.lay.hash(fresh, freshRow); got != want {
			t.Fatalf("node %d: stored row hash %x, the state's row in a fresh table %x", j, got, want)
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
			wantKey, wantErr := stepKey(m, ec, st, a, p)
			gotKey, gotErr := stepKey(m, ec, row, b, p)
			if gotErr != wantErr || !bytes.Equal(gotKey, wantKey) {
				t.Fatalf("node %d, process %s: row stepped to (%x, %q), state to (%x, %q)",
					j, m.progs[p].beh.Name, gotKey, gotErr, wantKey, wantErr)
			}
		}
	}
	if steps == 0 {
		t.Fatal("no enabled process stepped")
	}
}

// TestRowInvariance: the robust drop-1 scenario at a 100,000-state
// bound gives one report at 1, 2 and 4 workers, in RAM and under a 4 KiB
// budget that seals nearly every layer: workers intern values
// concurrently, in any order, and no count, fingerprint or violation
// may depend on it.
func TestRowInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("six 100,000-state explorations")
	}
	var ref checkDigest
	for _, budget := range []int64{0, 4096} {
		for _, workers := range []int{1, 2, 4} {
			sys, r := refinePQ(t, protogen.Config{Protocol: spec.FullHandshake, Robust: true})
			rep := mustCheck(t, sys, Config{
				MaxDrops: 1, MaxStates: 100_000, AbortVars: r.AbortKeys(),
				Workers: workers, MemBudget: budget, SpillDir: t.TempDir(),
			})
			got := digestOf(rep)
			if budget == 0 && workers == 1 {
				ref = got
				if rep.States != 100_001 || ref.fingerprint == "" {
					t.Fatalf("reference run: %d states, fingerprint %q", rep.States, ref.fingerprint)
				}
				continue
			}
			if got != ref {
				t.Fatalf("budget %d, %d workers diverged:\n%+v\nwant:\n%+v", budget, workers, got, ref)
			}
			if budget > 0 && rep.SpilledStates == 0 {
				t.Fatalf("budget %d, %d workers spilled nothing", budget, workers)
			}
		}
	}
}

// TestMemoryPerState pins what the checker spends per stored state on
// the robust proof (drop 0, one worker, 30,132 states): heap
// allocations during the search, and the heap the finished search
// keeps live. A stored state is a 210-byte row plus its node and index
// entries; the bounds sit below what a store of heap-allocated state
// graphs needs here (about 8 allocations and 640 live bytes).
func TestMemoryPerState(t *testing.T) {
	sys, _ := refinePQ(t, robustCfg(false))
	m := newTestMachine(t, sys, Config{Workers: 1})
	var before, after, live runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sr := newSearcher(m)
	if err := sr.run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	runtime.GC()
	runtime.ReadMemStats(&live)
	n := float64(sr.count())
	allocs := float64(after.Mallocs-before.Mallocs) / n
	liveBytes := (float64(live.HeapAlloc) - float64(before.HeapAlloc)) / n
	runtime.KeepAlive(sr)
	t.Logf("%d states: %.2f allocs/state, %.0f B/state allocated, %.0f B/state live",
		sr.count(), allocs, float64(after.TotalAlloc-before.TotalAlloc)/n, liveBytes)
	if sr.count() != 30_132 {
		t.Fatalf("explored %d states, want 30132", sr.count())
	}
	if allocs > 3 {
		t.Errorf("%.2f allocations per stored state, want <= 3", allocs)
	}
	if liveBytes > 450 {
		t.Errorf("%.0f live bytes per stored state, want <= 450", liveBytes)
	}
}

// TestSlabLocate pins the slab's chunk arithmetic: consecutive elements
// fill each chunk in order, chunks grow until they reach the fixed size,
// and dropBelow frees only chunks wholly below its bound.
func TestSlabLocate(t *testing.T) {
	k, off := 0, 0
	for i := 0; i < slabGrowing+3*slabFixed; i++ {
		gk, goff := locate(i)
		if gk != k || goff != off {
			t.Fatalf("locate(%d) = (%d, %d), want (%d, %d)", i, gk, goff, k, off)
		}
		if off++; off == chunkLen(k) {
			k, off = k+1, 0
		}
	}
	s := slab[int32]{stride: 2}
	for i := 0; i < 1000; i++ {
		e := s.add()
		e[0], e[1] = int32(i), int32(-i)
	}
	s.dropBelow(slabBase + 2*slabBase) // chunks 0 and 1
	if s.chunks[0] != nil || s.chunks[1] != nil || s.chunks[2] == nil {
		t.Fatal("dropBelow freed the wrong chunks")
	}
	for i := 3 * slabBase; i < 1000; i++ {
		if e := s.at(i); e[0] != int32(i) || e[1] != int32(-i) {
			t.Fatalf("element %d = %v", i, e)
		}
	}
}
