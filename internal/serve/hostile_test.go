package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
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
// with no recover, so one request killed the daemon. Each must get an
// error reply, and the next request must still succeed.
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
		if resp.StatusCode == http.StatusOK || !strings.Contains(string(body), "protogen:") {
			t.Fatalf("status %d, body %s; want a protogen error", resp.StatusCode, body)
		}
		resp, body = postJSON(t, ts.URL+"/v1/query", `{"op":"synthesize","workload":"pq"}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("next request: status %d, body %s", resp.StatusCode, body)
		}
	}
	healthy(t, ts.URL)
}
