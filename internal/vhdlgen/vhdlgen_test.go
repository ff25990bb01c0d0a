package vhdlgen

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/protogen"
	"repro/internal/spec"
	"repro/internal/workloads"
)

func buildRefinedPQ(t *testing.T) *spec.System {
	t.Helper()
	sys := spec.NewSystem("PQ")
	comp1 := sys.AddModule("comp1")
	comp2 := sys.AddModule("comp2")
	p := comp1.AddBehavior(spec.NewBehavior("P"))
	q := comp1.AddBehavior(spec.NewBehavior("Q"))
	x := comp2.AddVariable(spec.NewVar("X", spec.BitVector(16)))
	mem := comp2.AddVariable(spec.NewVar("MEM", spec.Array(64, spec.BitVector(16))))
	ad := p.AddVar("AD", spec.Integer)
	count := q.AddVar("COUNT", spec.BitVector(16))
	p.Body = []spec.Stmt{
		spec.AssignVar(spec.Ref(ad), spec.Int(5)),
		spec.AssignVar(spec.Ref(x), spec.ToVec(spec.Int(32), 16)),
		spec.AssignVar(spec.At(spec.Ref(mem), spec.Ref(ad)),
			spec.Add(spec.Ref(x), spec.ToVec(spec.Int(7), 16))),
	}
	q.Body = []spec.Stmt{
		spec.AssignVar(spec.Ref(count), spec.ToVec(spec.Int(9), 16)),
		spec.AssignVar(spec.At(spec.Ref(mem), spec.Int(60)), spec.Ref(count)),
	}
	ch0 := sys.AddChannel(&spec.Channel{Name: "CH0", Accessor: p, Var: x, Dir: spec.Write})
	ch1 := sys.AddChannel(&spec.Channel{Name: "CH1", Accessor: p, Var: x, Dir: spec.Read})
	ch2 := sys.AddChannel(&spec.Channel{Name: "CH2", Accessor: p, Var: mem, Dir: spec.Write})
	ch3 := sys.AddChannel(&spec.Channel{Name: "CH3", Accessor: q, Var: mem, Dir: spec.Write})
	bus := &spec.Bus{Name: "B", Channels: []*spec.Channel{ch0, ch1, ch2, ch3}, Width: 8}
	sys.Buses = append(sys.Buses, bus)
	if _, err := protogen.Generate(sys, bus, protogen.Config{Protocol: spec.FullHandshake}); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestEmitContainsPaperArtifacts(t *testing.T) {
	sys := buildRefinedPQ(t)
	out := Emit(sys)
	// The elements the paper's Figs. 4 and 5 show:
	for _, want := range []string{
		"type HandShakeBus is record",
		"START, DONE : bit ;",
		"ID : bit_vector(1 downto 0) ;",
		"DATA : bit_vector(7 downto 0) ;",
		"signal B : HandShakeBus ;",
		"procedure SendCH0",
		"B.ID <= \"00\" ;",
		"wait until (B.DONE = '1') ;",
		"B.START <= '0' ;",
		"process Xproc",
		"process MEMproc",
		"SendCH0(",
		"ReceiveCH1(Xtemp)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("emitted VHDL missing %q", want)
		}
	}
}

func TestEmitBusTrailerComments(t *testing.T) {
	sys := buildRefinedPQ(t)
	out := Emit(sys)
	if !strings.Contains(out, "-- bus B : width 8") {
		t.Error("missing bus trailer")
	}
	if !strings.Contains(out, "process Q writing variable MEM") {
		t.Error("missing channel annotation")
	}
}

func TestEmitSliceSyntax(t *testing.T) {
	sys := buildRefinedPQ(t)
	out := Emit(sys)
	// Word slicing of the 16-bit message over the 8-bit bus.
	if !strings.Contains(out, "(7 downto 0)") || !strings.Contains(out, "(15 downto 8)") {
		t.Errorf("missing word slices in output")
	}
}

func TestEmitProcedureStandalone(t *testing.T) {
	sys := buildRefinedPQ(t)
	p := sys.FindBehavior("P")
	send := p.FindProc("SendCH0")
	out := EmitProcedure(send)
	if !strings.Contains(out, "procedure SendCH0(txdata : in bit_vector(15 downto 0)) is") {
		t.Errorf("procedure header wrong:\n%s", out)
	}
	if !strings.Contains(out, "variable msg : bit_vector(15 downto 0) ;") {
		t.Errorf("missing local declaration:\n%s", out)
	}
}

func TestEmitServerDispatcher(t *testing.T) {
	sys := buildRefinedPQ(t)
	memproc := sys.FindBehavior("MEMproc")
	out := EmitBehavior(memproc)
	for _, want := range []string{
		"-- generated variable process",
		"loop",
		`if (B.ID = "10") then`,
		`elsif (B.ID = "11") then`,
		"RecvCH2() ;",
		"RecvCH3() ;",
		"end loop ;",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dispatcher missing %q:\n%s", want, out)
		}
	}
}

func TestSummary(t *testing.T) {
	sys := buildRefinedPQ(t)
	out := Summary(sys)
	if !strings.Contains(out, "8 data + 2 control + 2 id = 12 lines") {
		t.Errorf("summary wrong:\n%s", out)
	}
	if !strings.Contains(out, "CH0") || !strings.Contains(out, "16 bits/message") {
		t.Errorf("summary channels wrong:\n%s", out)
	}
}

// TestSummaryChannelIDOrder: Summary lists each bus's channels in ID
// order, which is their position on the bus. Sorting names as strings
// would put Ethernet-4's ch10..ch12 before ch2.
func TestSummaryChannelIDOrder(t *testing.T) {
	sys := synthesized(t, workloads.Ethernet(4), core.Options{Workers: 1})
	var lines []string
	for _, l := range strings.Split(Summary(sys), "\n") {
		if strings.HasPrefix(l, "  ") {
			lines = append(lines, l)
		}
	}
	var want []*spec.Channel
	for _, bus := range sys.Buses {
		want = append(want, bus.Channels...)
	}
	if len(lines) != len(want) || len(want) < 10 {
		t.Fatalf("%d channel lines for %d channels:\n%s", len(lines), len(want), Summary(sys))
	}
	for i, c := range want {
		f := strings.Fields(lines[i])
		if f[0] != c.Name || f[1] != "id="+c.ID.String() {
			t.Errorf("line %d = %q, want channel %s id=%s", i, lines[i], c.Name, c.ID)
		}
		if i > 0 && want[i-1].ID.CompareUnsigned(c.ID) >= 0 {
			t.Errorf("channel %s (id %s) listed after %s (id %s)", c.Name, c.ID, want[i-1].Name, want[i-1].ID)
		}
	}
}

func TestEmitIsDeterministic(t *testing.T) {
	a := Emit(buildRefinedPQ(t))
	b := Emit(buildRefinedPQ(t))
	if a != b {
		t.Fatal("nondeterministic emission")
	}
}

func TestConvRendering(t *testing.T) {
	v := spec.NewVar("v", spec.BitVector(8))
	if got := string(appendExpr(nil, spec.ToInt(spec.Ref(v)))); got != "conv_integer(v)" {
		t.Errorf("ToInt = %q", got)
	}
	i := spec.NewVar("i", spec.Integer)
	if got := string(appendExpr(nil, spec.ToVec(spec.Ref(i), 7))); got != "conv_bit_vector(i, 7)" {
		t.Errorf("ToVec = %q", got)
	}
}
