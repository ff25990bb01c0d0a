package hdl

import (
	"errors"
	"sort"
	"strings"
	"testing"

	"repro/internal/spec"
)

// FuzzParse: Parse never panics, its errors carry a position, every
// system it returns can be hashed, and a printable one reaches the
// print fixed point Print(Parse(Print(sys))) == Print(sys). Print
// parenthesizes every operator, so its text nests deeper than the
// input did; for an input near maxDepth the nesting error is the one
// failure the re-parse may report. The seeds are the inputs whose
// digests TestFrontEndDigests pins, among them every testdata/*.sys,
// plus the committed corpus under testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	in := frontEndInputs(f)
	names := make([]string, 0, len(in))
	for name := range in {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(in[name])
	}
	f.Fuzz(func(t *testing.T, src string) {
		sys, err := Parse(src)
		if err != nil {
			var perr *Error
			if errors.As(err, &perr) && (perr.Line < 1 || perr.Col < 1) {
				t.Fatalf("error without a position: %v", err)
			}
			return
		}
		spec.Hash(sys)
		once, err := Print(sys)
		if err != nil {
			return
		}
		sys2, err := Parse(once)
		if err != nil {
			if strings.Contains(err.Error(), "nesting deeper than") {
				return
			}
			t.Fatalf("printed text does not parse: %v\n%s", err, once)
		}
		twice, err := Print(sys2)
		if err != nil {
			t.Fatalf("reparsed system does not print: %v\n%s", err, once)
		}
		if twice != once {
			t.Fatalf("print not a fixed point:\n--- once ---\n%s\n--- twice ---\n%s", once, twice)
		}
	})
}
