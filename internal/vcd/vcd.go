// Package vcd writes IEEE 1364 Value Change Dump files from simulation
// runs, so the generated bus protocols can be inspected in any standard
// waveform viewer (GTKWave etc.). Record signals — like the generated
// HandShakeBus — are flattened into one VCD variable per field, which
// makes the START/DONE handshakes and ID/DATA sequencing directly
// visible.
//
// Usage:
//
//	w, _ := vcd.NewWriter(file, sys)
//	eng, _ := sim.NewEngine(sys)
//	res, err := eng.Run(sim.Config{OnEvent: w.OnEvent})
//	w.Close(res.Clocks)
package vcd

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"repro/internal/sim"
	"repro/internal/spec"
)

// Writer streams VCD output for a system's signals.
type Writer struct {
	out *bufio.Writer
	// vars maps (signal, field index) to a VCD identifier; field index
	// -1 addresses a whole non-record signal.
	ids    map[varKey]string
	widths map[varKey]int
	last   map[varKey]string // last emitted value, to suppress no-ops
	sigs   []*spec.Variable
	now    int64
	nowSet bool
	closed bool
}

type varKey struct {
	sig   *spec.Variable
	field int
}

// NewWriter writes the VCD header and variable declarations for every
// signal in the system (globals and module-level signals).
func NewWriter(w io.Writer, sys *spec.System) (*Writer, error) {
	vw := &Writer{
		out:    bufio.NewWriter(w),
		ids:    make(map[varKey]string),
		widths: make(map[varKey]int),
		last:   make(map[varKey]string),
	}
	for _, g := range sys.Globals {
		if g.Kind == spec.KindSignal {
			vw.sigs = append(vw.sigs, g)
		}
	}
	for _, m := range sys.Modules {
		for _, v := range m.Variables {
			if v.Kind == spec.KindSignal {
				vw.sigs = append(vw.sigs, v)
			}
		}
	}
	sort.Slice(vw.sigs, func(i, j int) bool { return vw.sigs[i].Name < vw.sigs[j].Name })

	fmt.Fprintf(vw.out, "$version interface-synthesis simulator $end\n")
	fmt.Fprintf(vw.out, "$timescale 1ns $end\n")
	fmt.Fprintf(vw.out, "$scope module %s $end\n", sys.Name)
	seq := 0
	nextID := func() string {
		// Printable VCD identifiers: ! .. ~
		id := ""
		n := seq
		seq++
		for {
			id = string(rune('!'+n%94)) + id
			n = n/94 - 1
			if n < 0 {
				break
			}
		}
		return id
	}
	for _, s := range vw.sigs {
		if rec, ok := s.Type.(spec.RecordType); ok {
			for fi, f := range rec.Fields {
				k := varKey{sig: s, field: fi}
				vw.ids[k] = nextID()
				vw.widths[k] = f.Type.BitWidth()
				fmt.Fprintf(vw.out, "$var wire %d %s %s.%s $end\n",
					f.Type.BitWidth(), vw.ids[k], s.Name, f.Name)
			}
			continue
		}
		k := varKey{sig: s, field: -1}
		vw.ids[k] = nextID()
		vw.widths[k] = s.Type.BitWidth()
		fmt.Fprintf(vw.out, "$var wire %d %s %s $end\n", s.Type.BitWidth(), vw.ids[k], s.Name)
	}
	fmt.Fprintf(vw.out, "$upscope $end\n$enddefinitions $end\n")

	// Initial values: everything zero.
	fmt.Fprintf(vw.out, "$dumpvars\n")
	for _, s := range vw.sigs {
		if rec, ok := s.Type.(spec.RecordType); ok {
			for fi, f := range rec.Fields {
				k := varKey{sig: s, field: fi}
				vw.emit(k, zeroes(f.Type.BitWidth()))
			}
			continue
		}
		k := varKey{sig: s, field: -1}
		vw.emit(k, zeroes(s.Type.BitWidth()))
	}
	fmt.Fprintf(vw.out, "$end\n")
	return vw, vw.out.Flush()
}

func zeroes(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = '0'
	}
	return string(b)
}

// OnEvent is the sim.Config hook: emits the changed fields of the
// signal at the current simulated time.
func (w *Writer) OnEvent(now int64, sig *spec.Variable, val sim.Value) {
	if w.closed {
		return
	}
	if !w.nowSet || now != w.now {
		fmt.Fprintf(w.out, "#%d\n", now)
		w.now = now
		w.nowSet = true
	}
	if rv, ok := val.(sim.RecordVal); ok {
		for fi := range rv.Fields {
			w.emit(varKey{sig: sig, field: fi}, valueBits(rv.Fields[fi], w.widths[varKey{sig: sig, field: fi}]))
		}
		return
	}
	k := varKey{sig: sig, field: -1}
	w.emit(k, valueBits(val, w.widths[k]))
}

func valueBits(v sim.Value, width int) string {
	switch v := v.(type) {
	case sim.VecVal:
		return v.V.String()
	case sim.IntVal:
		s := ""
		u := uint64(v.V)
		for i := width - 1; i >= 0; i-- {
			if u&(1<<uint(i)) != 0 {
				s += "1"
			} else {
				s += "0"
			}
		}
		return s
	case sim.BoolVal:
		if v.V {
			return "1"
		}
		return "0"
	}
	return zeroes(width)
}

// emit writes one value change, suppressing repeats.
func (w *Writer) emit(k varKey, bits string) {
	id, ok := w.ids[k]
	if !ok {
		return
	}
	if w.last[k] == bits {
		return
	}
	w.last[k] = bits
	if len(bits) == 1 {
		fmt.Fprintf(w.out, "%s%s\n", bits, id)
		return
	}
	fmt.Fprintf(w.out, "b%s %s\n", trimLeadingZeroes(bits), id)
}

func trimLeadingZeroes(s string) string {
	for len(s) > 1 && s[0] == '0' {
		s = s[1:]
	}
	return s
}

// Close emits the final timestamp and flushes.
func (w *Writer) Close(finalTime int64) error {
	if w.closed {
		return nil
	}
	w.closed = true
	if !w.nowSet || finalTime > w.now {
		fmt.Fprintf(w.out, "#%d\n", finalTime)
	}
	return w.out.Flush()
}
