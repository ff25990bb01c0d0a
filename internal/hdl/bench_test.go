package hdl

import (
	"os"
	"testing"
)

// TestParseAllocs bounds the allocations of one Parse of testdata/pq.sys
// (1 KB): the AST, the elaborated system and the elaborator's scopes,
// 140 in all; its tokens cost none. A token slice grown by doubling,
// keyword case folded through strings.ToLower and numbers scanned with
// fmt.Sscanf cost 263.
func TestParseAllocs(t *testing.T) {
	b, err := os.ReadFile(testdata(t, "pq.sys"))
	if err != nil {
		t.Fatal(err)
	}
	src := string(b)
	if n := testing.AllocsPerRun(20, func() { Parse(src) }); n > 145 {
		t.Errorf("Parse of pq.sys: %.0f allocs, want at most 145", n)
	}
}
