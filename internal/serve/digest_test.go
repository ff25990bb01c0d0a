package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestRespelledSpecRepointsDigest: the same system spelled with a
// comment added misses the digest, parses to the same key and hits the
// shared entry, which then answers the new spelling by digest. Each
// entry holds one digest, so the first spelling then misses the digest
// and hits the key again.
func TestRespelledSpecRepointsDigest(t *testing.T) {
	src, err := os.ReadFile("../../testdata/pq.sys")
	if err != nil {
		t.Fatal(err)
	}
	spelling := func(text string) string {
		b, err := json.Marshal(Request{Op: OpSynthesize, Spec: text})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	a, b := spelling(string(src)), spelling("-- the same system, respelled\n"+string(src))

	s, ts := newTestServer(t, Config{Workers: 1})
	var first []byte
	for i, step := range []struct {
		body                     string
		cache                    string
		hits, digestHits, misses int64
	}{
		{a, "miss", 0, 0, 1},
		{b, "hit", 1, 0, 1}, // key hit; the entry's digest is now b's
		{b, "hit", 2, 1, 1},
		{a, "hit", 3, 1, 1}, // a's digest was replaced: key hit again
		{a, "hit", 4, 2, 1},
	} {
		resp, got := postJSON(t, ts.URL+"/v1/query", step.body)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != step.cache {
			t.Fatalf("step %d: status %d, X-Cache %q, want 200 %s: %s", i, resp.StatusCode, resp.Header.Get("X-Cache"), step.cache, got)
		}
		if i == 0 {
			first = got
		} else if !bytes.Equal(got, first) {
			t.Fatalf("step %d: body differs from the miss's", i)
		}
		st := s.cache.stats()
		if st.hits != step.hits || st.digestHits != step.digestHits || st.misses != step.misses {
			t.Fatalf("step %d: hits %d, digest hits %d, misses %d; want %d, %d, %d",
				i, st.hits, st.digestHits, st.misses, step.hits, step.digestHits, step.misses)
		}
	}
	s.cache.mu.Lock()
	n := len(s.cache.byDigest)
	s.cache.mu.Unlock()
	if n != 1 {
		t.Fatalf("%d digests index one entry, want 1", n)
	}
}

// TestDigestFields: the digest changes with every field the key is a
// function of (the op, the workload, each byte of the spec, every
// option but the two hints the key leaves out), and the field framing
// keeps a byte moved across a field boundary from reading the same.
func TestDigestFields(t *testing.T) {
	base := Request{Op: OpSynthesize, Spec: "system S is\nend system;\n"}
	d0 := base.digest()
	if base.digest() != d0 {
		t.Fatal("digest is not deterministic")
	}
	pq := Request{Op: OpSynthesize, Workload: "pq"}
	for _, c := range []struct {
		name string
		a, b Request
	}{
		{"op", base, Request{Op: OpVerify, Spec: base.Spec}},
		{"workload", pq, Request{Op: OpSynthesize, Workload: "pq-solo"}},
		{"spec byte", base, Request{Op: OpSynthesize, Spec: strings.Replace(base.Spec, "S", "T", 1)}},
		{"field boundary", pq, Request{Op: OpSynthesize + "p", Workload: "q"}},
		{"workload vs spec", pq, Request{Op: OpSynthesize, Spec: "pq"}},
	} {
		if c.a.digest() == c.b.digest() {
			t.Errorf("%s: digests equal", c.name)
		}
	}

	opts := reflect.TypeOf(Options{})
	for i := 0; i < opts.NumField(); i++ {
		r := base
		f := reflect.ValueOf(&r.Options).Elem().Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString("half")
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int64:
			f.SetInt(3)
		default:
			t.Fatalf("option %s: unhandled kind %s", opts.Field(i).Name, f.Kind())
		}
		name := opts.Field(i).Name
		hint := name == "Workers" || name == "VerifyMemBudgetMB"
		if same := r.digest() == d0; same != hint {
			t.Errorf("option %s: digest unchanged = %v, want %v", name, same, hint)
		}
	}
}

// BenchmarkQueryHit measures the daemon's hit path in process: one
// /v1/query with PQ's text inline, answered from a warm cache.
func BenchmarkQueryHit(b *testing.B) {
	src, err := os.ReadFile("../../testdata/pq.sys")
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(Request{Op: OpSynthesize, Spec: string(src)})
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	query := func(want string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
		if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != want {
			b.Fatalf("status %d, X-Cache %q, want 200 %s: %s", rec.Code, rec.Header().Get("X-Cache"), want, rec.Body)
		}
	}
	query("miss")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		query("hit")
	}
}
