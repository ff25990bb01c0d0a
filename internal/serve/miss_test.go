package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"testing"

	"repro/internal/spec"
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
// submit, and the job carries that system to the run; once the run
// returns, the job — retained for /v1/jobs lookups — must no longer
// reference it, so up to maxRetainedJobs refined systems are not
// pinned.
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
	if j.err != nil || len(j.body) == 0 {
		t.Fatalf("job body %q, err %v", j.body, j.err)
	}
}

// TestMissExecutesKeyedSystem: the executor receives the system the
// key resolved and hashed, so a miss parses its spec once.
func TestMissExecutesKeyedSystem(t *testing.T) {
	got := make(chan bool, 1)
	swapExecutor(t, func(ctx context.Context, req *Request, sys *spec.System, key Key, specHash spec.Digest, defaultWorkers int, progress func(states, depth int)) ([]byte, error) {
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
