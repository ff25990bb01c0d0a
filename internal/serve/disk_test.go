package serve

import (
	"bytes"
	"context"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/spec"
)

// TestDiskCacheRoundTrip exercises the file format directly: put/get
// round-trip, miss on absent key, and removal of files that fail the
// magic or digest check.
func TestDiskCacheRoundTrip(t *testing.T) {
	d, err := newDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var k Key
	k[0] = 7
	if _, ok := d.get(k); ok {
		t.Fatal("hit on an empty cache")
	}
	body := []byte(`{"result":"ok"}` + "\n")
	d.put(k, body)
	got, ok := d.get(k)
	if !ok || !bytes.Equal(got, body) {
		t.Fatalf("get = (%q, %v), want stored body", got, ok)
	}

	// A flipped byte in the body must fail the digest and delete the file.
	path := d.path(k)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.get(k); ok {
		t.Fatal("corrupted entry served")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupted entry not removed: %v", err)
	}

	// Same for a wrong magic (e.g. a file from a different tool).
	if err := os.WriteFile(path, []byte("NOTMAGIC"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.get(k); ok {
		t.Fatal("foreign file served")
	}
	if hits, _, writes, errs := d.stats(); hits != 1 || writes != 1 || errs != 2 {
		t.Fatalf("stats = hits %d writes %d errs %d, want 1, 1, 2", hits, writes, errs)
	}
}

// TestDiskCachePersistsAcrossRestarts is the incremental-verify
// acceptance pin: a second daemon instance pointed at the same cache
// directory must answer a repeated query from the persistent store —
// byte-identically, and without re-running the engine.
func TestDiskCachePersistsAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	var execs atomic.Int64
	swapExecutor(t, func(ctx context.Context, req *Request, sys *spec.System, key Key, specHash spec.Digest, progress func(states, depth int)) ([]byte, error) {
		execs.Add(1)
		return []byte(`{"verdict":"clean","fingerprint":"abcd-ef01"}` + "\n"), nil
	})
	req := `{"op":"verify","workload":"pq-solo","options":{"verify_drops":1}}`

	query := func(t *testing.T) (string, []byte) {
		_, ts := newTestServer(t, Config{Workers: 1, CacheDir: dir})
		resp, body := postJSON(t, ts.URL+"/v1/query", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		return resp.Header.Get("X-Cache"), body
	}

	cache1, body1 := query(t)
	if cache1 != "miss" || execs.Load() != 1 {
		t.Fatalf("first query: X-Cache %q, %d executions, want miss, 1", cache1, execs.Load())
	}
	// "Restart": a fresh Server with an empty RAM cache, same directory.
	cache2, body2 := query(t)
	if cache2 != "hit" {
		t.Fatalf("post-restart query X-Cache = %q, want hit (served from disk)", cache2)
	}
	if execs.Load() != 1 {
		t.Fatalf("post-restart query re-ran the engine (%d executions)", execs.Load())
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("disk-served body differs:\nfresh: %s\ndisk:  %s", body1, body2)
	}

	// A torn entry must degrade to a recompute, never a wrong answer.
	ents, err := filepath.Glob(filepath.Join(dir, "*.res"))
	if err != nil || len(ents) != 1 {
		t.Fatalf("cache dir entries = %v (%v), want exactly one", ents, err)
	}
	if err := os.Truncate(ents[0], 10); err != nil {
		t.Fatal(err)
	}
	cache3, body3 := query(t)
	if cache3 != "miss" || execs.Load() != 2 {
		t.Fatalf("corrupted-entry query: X-Cache %q, %d executions, want miss, 2", cache3, execs.Load())
	}
	if !bytes.Equal(body1, body3) {
		t.Fatal("recomputed body differs from the original")
	}
}

// TestDiskCacheKilledMidWrite: a daemon killed between creating a put's
// temp file and renaming it leaves the temp file behind. The next
// daemon on the directory must delete it at startup and still serve
// the valid entry beside it byte-identically from disk; a torn entry
// must still be recomputed.
func TestDiskCacheKilledMidWrite(t *testing.T) {
	dir := t.TempDir()
	var execs atomic.Int64
	swapExecutor(t, func(ctx context.Context, req *Request, sys *spec.System, key Key, specHash spec.Digest, progress func(states, depth int)) ([]byte, error) {
		execs.Add(1)
		return []byte(`{"verdict":"clean","fingerprint":"abcd-ef01"}` + "\n"), nil
	})
	req := `{"op":"verify","workload":"pq-solo","options":{"verify_drops":1}}`
	half := filepath.Join(dir, "put-1234567.tmp")
	restart := func(t *testing.T, wantCache string, wantExecs int64) []byte {
		t.Helper()
		if err := os.WriteFile(half, []byte(diskMagic+"half a digest"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, ts := newTestServer(t, Config{Workers: 1, CacheDir: dir})
		if _, err := os.Stat(half); !os.IsNotExist(err) {
			t.Fatalf("half-written temp file survived a restart: %v", err)
		}
		resp, body := postJSON(t, ts.URL+"/v1/query", req)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != wantCache || execs.Load() != wantExecs {
			t.Fatalf("status %d, X-Cache %q, %d executions; want 200, %s, %d",
				resp.StatusCode, resp.Header.Get("X-Cache"), execs.Load(), wantCache, wantExecs)
		}
		return body
	}

	fresh := restart(t, "miss", 1)
	if got := restart(t, "hit", 1); !bytes.Equal(got, fresh) {
		t.Fatalf("disk-served body differs:\nfresh: %s\ndisk:  %s", fresh, got)
	}
	ents, err := filepath.Glob(filepath.Join(dir, "*.res"))
	if err != nil || len(ents) != 1 {
		t.Fatalf("cache dir entries = %v (%v), want exactly one", ents, err)
	}
	if err := os.Truncate(ents[0], 20); err != nil {
		t.Fatal(err)
	}
	if got := restart(t, "miss", 2); !bytes.Equal(got, fresh) {
		t.Fatal("recomputed body differs from the original")
	}
}
