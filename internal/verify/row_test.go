package verify

import (
	"fmt"
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
// built from, in either tier. A robust drop-1 search of 20,000 states
// runs in RAM and under a 4 KiB budget that seals all but its newest
// layers. For every stored node, the state loadState materializes (from
// its hot row, or from its spill record once sealed) is the state
// replayed along the node's BFS path: the same state (sameState) with
// the same locals unset, stepping to the same successor, or failing with
// the same error, on every enabled process. The node's row hashes as the
// replayed state's row interned into a fresh table, whose ids differ. A
// store into a never-written local fails (sim.Frame.writable), so a
// sealed state must keep its unset locals unset.
func TestRowsMatchStates(t *testing.T) {
	for _, budget := range []int64{0, 4096} {
		name := "ram"
		if budget > 0 {
			name = "spill"
		}
		t.Run(name, func(t *testing.T) {
			sys, ref := refinePQ(t, robustCfg(false))
			m := newTestMachine(t, sys, Config{MaxDrops: 1, MaxStates: 20_000, AbortVars: ref.AbortKeys()})
			checkStoredRows(t, runStored(t, m, budget))
		})
	}
}

// runStored runs m's search to its end, under a spill store and a
// budget of budget bytes when budget > 0, and fails if that budget
// sealed nothing.
func runStored(t *testing.T, m *machine, budget int64) *searcher {
	t.Helper()
	m.cfg.MemBudget = budget
	sr := newSearcher(m)
	if budget > 0 {
		sr.store.spill = newTestSpill(t, m.lay.size)
	}
	if err := sr.run(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d states, %d sealed", sr.count(), sr.sealed)
	if budget > 0 && sr.sealed == 0 {
		t.Fatalf("budget %d sealed nothing", budget)
	}
	return sr
}

// checkStoredRows holds every node of a finished search to the state
// replayed along its path (TestRowsMatchStates) and returns the
// replayed states, indexed by node.
func checkStoredRows(t *testing.T, sr *searcher) []*state {
	t.Helper()
	m := sr.m
	ec := m.newExecCtx()
	fresh := newInterner(newValueTable())
	freshRow := make([]byte, sr.lay.size)
	rec := make([]byte, sr.lay.size+recSum)
	got, a, b := m.newState(), m.newState(), m.newState()
	steps := 0
	states := replayStored(t, sr)
	for j, st := range states {
		if err := sr.loadState(sr.seq, int32(j), got); err != nil {
			t.Fatal(err)
		}
		if same, unset := sameState(got, st), sameUnset(got, st); !same || !unset {
			t.Fatalf("node %d (sealed %v) loaded as another state: same state %v, same unset locals %v",
				j, int32(j) < sr.sealed, same, unset)
		}
		row, err := sr.row(int32(j), rec)
		if err != nil {
			t.Fatal(err)
		}
		sr.lay.rowOf(fresh, freshRow, st)
		if got, want := sr.lay.hash(sr.seq.in, row), sr.lay.hash(fresh, freshRow); got != want {
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
			_, wantErr := m.exec(ec, st, a, p)
			_, gotErr := m.exec(ec, got, b, p)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || wantErr == nil && !(sameState(a, b) && sameUnset(a, b)) {
				t.Fatalf("node %d, process %s: loaded state stepped to (%s, %v), replayed to (%s, %v)",
					j, m.progs[p].beh.Name, m.describeState(b), gotErr, m.describeState(a), wantErr)
			}
		}
	}
	if steps == 0 {
		t.Fatal("no enabled process stepped")
	}
	return states
}

// sameUnset reports whether a and b leave the same locals unset (nil).
func sameUnset(a, b *state) bool {
	for p := range a.l {
		for i := range a.l[p] {
			if (a.l[p][i] == nil) != (b.l[p][i] == nil) {
				return false
			}
		}
	}
	return true
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
