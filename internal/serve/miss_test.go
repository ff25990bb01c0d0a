package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/spec"
	"repro/internal/vhdlgen"
)

// inlineRequest renders a synthesize request carrying the .sys file's
// text inline.
func inlineRequest(t *testing.T, file string, o Options) string {
	t.Helper()
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(Request{Op: OpSynthesize, Spec: string(src), Options: o})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSynthesizeVHDLPins pins the refined listing's digest and size in
// synthesize replies, for a named workload and for the same spec sent
// inline. The values were recorded with the renderer that built every
// listing through fmt.Sprintf, before a miss parsed its spec once.
func TestSynthesizeVHDLPins(t *testing.T) {
	hardened := Options{Robust: true, Parity: true}
	cases := []struct {
		name  string
		req   string
		sha   string
		bytes int
	}{
		{"workload pq", `{"op":"synthesize","workload":"pq"}`,
			"5e67fc71ef5eb5fc97c5e16589884fab82b05e09689cf9e77ba19de4da075c85", 6879},
		{"workload pq robust+parity", `{"op":"synthesize","workload":"pq","options":{"robust":true,"parity":true}}`,
			"883e702898d7fa112133c49008754b50d5841526dbfed729cd45a7725e55ad4f", 29036},
		{"inline pq.sys", inlineRequest(t, "../../testdata/pq.sys", Options{}),
			"942d53fa582a9726160657e39a0b11c025f2c170637fabbb9c70f75c9c291fd8", 16533},
		{"inline pq.sys robust+parity", inlineRequest(t, "../../testdata/pq.sys", hardened),
			"a9da9f4ebefb359cf64fe3bc9ed811e10465b5db4bcd290017a6f405441db212", 69118},
	}
	_, ts := newTestServer(t, Config{Workers: 2})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/v1/query", tc.req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			var res ResultJSON
			if err := json.Unmarshal(body, &res); err != nil {
				t.Fatal(err)
			}
			if res.VHDLSHA256 != tc.sha || res.VHDLBytes != tc.bytes {
				t.Errorf("vhdl_sha256 %s (%d bytes), want %s (%d bytes)", res.VHDLSHA256, res.VHDLBytes, tc.sha, tc.bytes)
			}
		})
	}
}

// TestCompletedJobDropsSystem: a miss resolves its spec once, in
// submit, and the job carries that system and its request to the run;
// once the run returns, the job — retained for /v1/jobs lookups — must
// reference neither, so up to maxRetainedJobs refined systems and
// request texts of up to maxRequestBytes each are not pinned.
func TestCompletedJobDropsSystem(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	resp, body := postJSON(t, ts.URL+"/v1/query", inlineRequest(t, "../../testdata/pq.sys", Options{}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	j := s.jobByID(resp.Header.Get("X-Job-Id"))
	if j == nil {
		t.Fatal("completed job not retained")
	}
	<-j.done
	if j.sys != nil {
		t.Fatal("completed job still references its *spec.System")
	}
	if j.req != nil {
		t.Fatal("completed job still references its *Request")
	}
	if j.err != nil || len(j.body) == 0 {
		t.Fatalf("job body %q, err %v", j.body, j.err)
	}
}

// TestMissExecutesKeyedSystem: the executor receives the system the
// key resolved and hashed, so a miss parses its spec once.
func TestMissExecutesKeyedSystem(t *testing.T) {
	got := make(chan bool, 1)
	swapExecutor(t, func(ctx context.Context, req *Request, sys *spec.System, key Key, specHash spec.Digest, progress func(states, depth int)) ([]byte, error) {
		got <- sys != nil && spec.Hash(sys) == specHash
		return []byte("{}\n"), nil
	})
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, body := postJSON(t, ts.URL+"/v1/query", inlineRequest(t, "../../testdata/pq.sys", Options{}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if !<-got {
		t.Fatal("executor did not receive the system the key hashed")
	}
}

// TestPooledListingBuffer: a miss renders its listing into a pooled
// buffer and hashes it there. One worker serves a robust 6x6 mesh at
// width 1 (a 1.7 MB listing, whose buffer is too large to pool), then
// PQ twice; every reply must carry the digest and size of the listing
// Emit renders for the same synthesis.
func TestPooledListingBuffer(t *testing.T) {
	cases := []struct {
		workload string
		o        Options
	}{
		{"mesh-6", Options{Robust: true, ForceWidth: 1}},
		{"pq", Options{}},
		{"pq", Options{Robust: true, Parity: true}},
	}
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, tc := range cases {
		req, err := json.Marshal(Request{Op: OpSynthesize, Workload: tc.workload, Options: tc.o})
		if err != nil {
			t.Fatal(err)
		}
		resp, body := postJSON(t, ts.URL+"/v1/query", string(req))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", req, resp.StatusCode, body)
		}
		var res ResultJSON
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatal(err)
		}

		sys, err := (&Request{Workload: tc.workload}).resolve()
		if err != nil {
			t.Fatal(err)
		}
		opts, err := tc.o.coreOptions(OpSynthesize)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.Synthesize(sys, opts); err != nil {
			t.Fatal(err)
		}
		vhdl := vhdlgen.Emit(sys)
		sum := sha256.Sum256([]byte(vhdl))
		if want := hex.EncodeToString(sum[:]); res.VHDLSHA256 != want || res.VHDLBytes != len(vhdl) {
			t.Errorf("%s: vhdl_sha256 %s (%d bytes), Emit gives %s (%d bytes)", req, res.VHDLSHA256, res.VHDLBytes, want, len(vhdl))
		}
	}
}

// TestPutListingDropsLargeBuffers: a buffer that grew past 1 MiB is
// not pooled, so one large listing does not stay resident.
func TestPutListingDropsLargeBuffers(t *testing.T) {
	for _, c := range []struct {
		capacity int
		kept     bool
	}{{8 << 10, true}, {maxPooledListing, true}, {maxPooledListing + 1, false}, {3 << 20, false}} {
		buf := make([]byte, 100, c.capacity)
		if got := putListing(new([]byte), buf); got != c.kept {
			t.Errorf("capacity %d: kept %v, want %v", c.capacity, got, c.kept)
		}
	}
}
