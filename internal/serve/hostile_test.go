package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/par"
	"repro/internal/spec"
)

// specBody is a query body carrying inline .sys text.
func specBody(t *testing.T, op, src string) string {
	t.Helper()
	b, err := json.Marshal(&Request{Op: op, Spec: src})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// healthy fails the test unless the daemon still answers /healthz.
func healthy(t *testing.T, url string) {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(b), `"status":"ok"`) {
		t.Fatalf("healthz: %s", b)
	}
}

// TestDeepNestingIsBadRequest: a 2 MB spec nesting a million
// parentheses, under the 8 MiB body limit, once overflowed the
// parser's stack, a fatal error no recover catches. It must be a 400
// that names the position, and the daemon must stay up.
func TestDeepNestingIsBadRequest(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	src := "system S is\n  module M is\n    variable v : integer := " +
		strings.Repeat("(", 1000000) + "1" + strings.Repeat(")", 1000000) + ";\n  end module;\nend system;\n"
	resp, body := postJSON(t, ts.URL+"/v1/query", specBody(t, OpSynthesize, src))
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "3:") ||
		!strings.Contains(string(body), "nesting deeper than") {
		t.Fatalf("status %d, body %.200s; want 400 with a positioned nesting error", resp.StatusCode, body)
	}
	healthy(t, ts.URL)
}

// TestUnsupportedRemoteAccessIsAnError: protocol generation once
// panicked on these parsed, valid specs, on a job worker goroutine
// with no recover, so one request killed the daemon. Each must get a
// 400 naming protogen's refusal, and the next request must still
// succeed.
func TestUnsupportedRemoteAccessIsAnError(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, src := range []string{
		`system S is
  module comp1 is
    behavior P is
    begin
      X(3 downto 0) := "1010";
    end behavior;
  end module;
  module comp2 is
    variable X : bit_vector(7 downto 0);
  end module;
end system;
`, `system S is
  module comp1 is
    behavior P is
      variable Y : array(0 to 3) of bit_vector(7 downto 0);
    begin
      Y := X;
    end behavior;
  end module;
  module comp2 is
    variable X : array(0 to 3) of bit_vector(7 downto 0);
  end module;
end system;
`} {
		resp, body := postJSON(t, ts.URL+"/v1/query", specBody(t, OpSynthesize, src))
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "protogen:") {
			t.Fatalf("status %d, body %s; want 400 with a protogen error", resp.StatusCode, body)
		}
		resp, body = postJSON(t, ts.URL+"/v1/query", `{"op":"synthesize","workload":"pq"}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("next request: status %d, body %s", resp.StatusCode, body)
		}
	}
	healthy(t, ts.URL)
}

// TestOversizedTypesAreBadRequest: elaboration bounds vector widths,
// array lengths and conversion widths. A negative conv_bit_vector width
// once parsed and validated, then panicked in the checker on a search
// worker, which killed the daemon; a 999,999-bit vector or a
// 20,000,000-element array ran it out of memory. Each must be a 400
// naming the position, and the daemon must stay up.
func TestOversizedTypesAreBadRequest(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	src := func(x, stmt string) string {
		return `system S is
  module comp1 is
    behavior P is
      variable AD : integer;
      variable T : bit_vector(7 downto 0);
    begin
      AD := 5;
      ` + stmt + `
      X <= T;
    end behavior;
  end module;
  module comp2 is
    variable X : ` + x + `;
  end module;
  channel CH0 : P writes X;
end system;
`
	}
	for _, c := range []struct {
		op, src, want string
	}{
		{OpVerify, src("bit_vector(7 downto 0)", "T := conv_bit_vector(AD, -3);"),
			"8:32: conv_bit_vector width -3 is outside 1 to 4096"},
		{OpSynthesize, src("bit_vector(999999 downto 0)", "T := conv_bit_vector(AD, 8);"),
			"13:18: bit_vector(999999 downto 0) is wider than 4096 bits"},
		{OpVerify, src("array(0 to 20000000) of bit_vector(7 downto 0)", "T := conv_bit_vector(AD, 8);"),
			"13:18: array (0 to 20000000) holds more than 65536 elements"},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/query", specBody(t, c.op, c.src))
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), c.want) {
			t.Fatalf("%s: status %d, body %s; want 400 with %q", c.op, resp.StatusCode, body, c.want)
		}
		healthy(t, ts.URL)
	}
}

// TestWordTransferBoundIsAnError: eight 4,096-bit writes forced to
// width 1 unroll 32,768 bus-word transfers, twice the synthesis bound.
// The request is refused with a 400 naming the total and the bound,
// and the daemon stays up. Sixty-four such channels, a 268 KB body,
// once took the daemon's heap to 2.78 GB.
func TestWordTransferBoundIsAnError(t *testing.T) {
	var src strings.Builder
	src.WriteString("system Wide is\n  module src is\n")
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&src, "    behavior P%d is\n      variable L : bit_vector(4095 downto 0);\n    begin\n      V%d <= L;\n    end behavior;\n", i, i)
	}
	src.WriteString("  end module;\n  module dst is\n")
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&src, "    variable V%d : bit_vector(4095 downto 0);\n", i)
	}
	src.WriteString("  end module;\n")
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&src, "  channel C%d : P%d writes V%d;\n", i, i, i)
	}
	src.WriteString("end system;\n")
	req, err := json.Marshal(&Request{Op: OpSynthesize, Spec: src.String(), Options: Options{ForceWidth: 1}})
	if err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{Workers: 1})
	resp, body := postJSON(t, ts.URL+"/v1/query", string(req))
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "32768 word transfers") ||
		!strings.Contains(string(body), "16384") {
		t.Fatalf("status %d, body %.300s; want 400 refusing 32768 transfers at the limit of 16384", resp.StatusCode, body)
	}
	healthy(t, ts.URL)
	resp, body = postJSON(t, ts.URL+"/v1/query", `{"op":"synthesize","workload":"pq"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("next request: status %d, body %s", resp.StatusCode, body)
	}
}

// TestHostileOptions: option values a short request controls must not
// choose how much the daemon allocates. A max_retries near 1<<62 is a
// legal budget and must synthesize; a table of shared integer literals
// indexed by value would panic on a job worker at that size and kill
// the daemon. A force_width past the widest legal vector asked the
// parity generator for a slice as wide as the bus, and a max_width
// near 1<<62 panicked sizing the sweep's grid on a job worker; each
// must be a 400, as must a drop budget outside the checker's 16 bits
// and a state bound above the daemon's limit. Either way the daemon
// must stay up.
func TestHostileOptions(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, c := range []struct {
		body   string
		status int
		want   string
	}{
		{`{"op":"synthesize","workload":"pq","options":{"robust":true,"max_retries":4611686018427387904}}`,
			http.StatusOK, `"vhdl_sha256"`},
		{`{"op":"synthesize","workload":"pq","options":{"robust":true,"parity":true,"force_width":1073741824}}`,
			http.StatusBadRequest, "force_width 1073741824 is wider than 4096 bits"},
		{`{"op":"sweep","workload":"pq","options":{"max_width":4611686018427387904}}`,
			http.StatusBadRequest, "max_width 4611686018427387904 is wider than 4096 bits"},
		// A drop budget past 16 bits used to wrap to the fault-free
		// budget and report "clean", and that answer was cached.
		{`{"op":"verify","workload":"pq","options":{"verify_drops":65536}}`,
			http.StatusBadRequest, "verify_drops 65536 is outside 0 to 32767"},
		{`{"op":"repair","workload":"pq-solo","options":{"verify_drops":-1}}`,
			http.StatusBadRequest, "verify_drops -1 is outside 0 to 32767"},
		// An unbounded state bound let one request exhaust the daemon's
		// memory.
		{`{"op":"verify","workload":"pq","options":{"verify_states":4611686018427387904}}`,
			http.StatusBadRequest, "verify_states 4611686018427387904 is above the limit of 5000000"},
		{`{"op":"synthesize","workload":"pq","options":{"verify":true,"verify_states":5000001}}`,
			http.StatusBadRequest, "verify_states 5000001 is above the limit of 5000000"},
		// Negative bounds read as the default and as unbounded, and each
		// keyed, ran and cached the same verdict apart.
		{`{"op":"verify","workload":"pq-solo","options":{"verify_states":-1}}`,
			http.StatusBadRequest, "verify_states -1 is negative"},
		{`{"op":"verify","workload":"pq-solo","options":{"verify_depth":-5}}`,
			http.StatusBadRequest, "verify_depth -5 is negative"},
		{`{"op":"synthesize","workload":"pq","options":{"verify":true,"verify_depth":-9223372036854775808}}`,
			http.StatusBadRequest, "verify_depth -9223372036854775808 is negative"},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/query", c.body)
		if resp.StatusCode != c.status || !strings.Contains(string(body), c.want) {
			t.Fatalf("%s: status %d, body %.300s; want %d with %q", c.body, resp.StatusCode, body, c.status, c.want)
		}
		healthy(t, ts.URL)
	}
}

// lockedBuffer is a bytes.Buffer safe for the daemon's logger to write
// while a test reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestJobPanicIsAnError: a panic on a job path, raised on the job's
// goroutine or on a par worker the job started, must fail that job
// with a 500 and a logged stack, and leave the daemon serving: the
// next request gets a 200. Either panic used to kill the process.
func TestJobPanicIsAnError(t *testing.T) {
	var logged lockedBuffer
	prev := log.Writer()
	log.SetOutput(&logged)
	t.Cleanup(func() { log.SetOutput(prev) })
	swapExecutor(t, func(ctx context.Context, req *Request, sys *spec.System, key Key, specHash spec.Digest, progress func(states, depth int)) ([]byte, error) {
		switch req.Workload {
		case "pq":
			panic("executor bug")
		case "pq-solo":
			par.For(2, 2, func(i int) {
				if i == 1 {
					panic("worker bug")
				}
			})
		}
		return []byte("{}\n"), nil
	})
	s, ts := newTestServer(t, Config{Workers: 1})
	for _, c := range []struct{ workload, want string }{{"pq", "executor bug"}, {"pq-solo", "worker bug"}} {
		resp, body := postJSON(t, ts.URL+"/v1/query", `{"op":"synthesize","workload":"`+c.workload+`"}`)
		if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "panicked: "+c.want+`"`) {
			t.Fatalf("%s: status %d, body %s; want 500 naming the panic", c.workload, resp.StatusCode, body)
		}
		healthy(t, ts.URL)
	}
	resp, body := postJSON(t, ts.URL+"/v1/query", `{"op":"synthesize","workload":"flc"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("next request: status %d, body %s", resp.StatusCode, body)
	}
	if n := s.jobsFailed.Load(); n != 2 {
		t.Fatalf("jobs failed = %d, want 2", n)
	}
	for _, want := range []string{"panicked: executor bug", "panicked: worker bug", "worker goroutine stack:"} {
		if !strings.Contains(logged.String(), want) {
			t.Fatalf("log lacks %q:\n%s", want, logged.String())
		}
	}
}
