package protogen

import (
	"strings"
	"testing"

	"repro/internal/spec"
)

// buildPQ constructs the system of the paper's Fig. 3: behaviors P and Q,
// variables X (16-bit scalar) and MEM (64 x 16-bit array) on another
// component, four channels CH0..CH3.
func buildPQ() (*spec.System, *spec.Bus) {
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
		spec.AssignSig(spec.Ref(x), spec.ToVec(spec.Int(32), 16)),
		spec.AssignVar(spec.At(spec.Ref(mem), spec.Ref(ad)), spec.Add(spec.Ref(x), spec.ToVec(spec.Int(7), 16))),
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
	return sys, bus
}

func generatePQ(t *testing.T) (*spec.System, *spec.Bus, *Refinement) {
	t.Helper()
	sys, bus := buildPQ()
	ref, err := Generate(sys, bus, Config{Protocol: spec.FullHandshake})
	if err != nil {
		t.Fatal(err)
	}
	return sys, bus, ref
}

func TestIDAssignment(t *testing.T) {
	sys, bus, _ := generatePQ(t)
	_ = sys
	wantIDs := []string{"00", "01", "10", "11"}
	for i, c := range bus.Channels {
		if c.IDBits != 2 {
			t.Errorf("%s IDBits = %d, want 2", c.Name, c.IDBits)
		}
		if got := c.ID.String(); got != wantIDs[i] {
			t.Errorf("%s ID = %q, want %q", c.Name, got, wantIDs[i])
		}
	}
}

func TestBusRecordStructure(t *testing.T) {
	sys, bus, ref := generatePQ(t)
	if bus.Record.Name != "HandShakeBus" {
		t.Errorf("record name = %q", bus.Record.Name)
	}
	wantFields := []struct {
		name  string
		width int
	}{{"START", 1}, {"DONE", 1}, {"ID", 2}, {"DATA", 8}}
	if len(bus.Record.Fields) != len(wantFields) {
		t.Fatalf("record has %d fields", len(bus.Record.Fields))
	}
	for i, w := range wantFields {
		f := bus.Record.Fields[i]
		if f.Name != w.name || f.Type.BitWidth() != w.width {
			t.Errorf("field %d = %s:%s, want %s:%d bits", i, f.Name, f.Type, w.name, w.width)
		}
	}
	if ref.BusSignal == nil || ref.BusSignal.Kind != spec.KindSignal {
		t.Fatal("bus signal not declared as a signal")
	}
	if len(sys.Globals) != 1 || sys.Globals[0] != ref.BusSignal {
		t.Error("bus signal not registered as a system global")
	}
	if bus.TotalLines() != 12 {
		t.Errorf("total lines = %d, want 12 (8 data + 2 ctrl + 2 id)", bus.TotalLines())
	}
}

func TestProceduresGenerated(t *testing.T) {
	sys, bus, ref := generatePQ(t)
	p := sys.FindBehavior("P")
	q := sys.FindBehavior("Q")
	if p.FindProc("SendCH0") == nil || p.FindProc("ReceiveCH1") == nil || p.FindProc("SendCH2") == nil {
		t.Fatalf("P procedures missing; have %v", procNames(p))
	}
	if q.FindProc("SendCH3") == nil {
		t.Fatalf("Q procedures missing; have %v", procNames(q))
	}
	for _, c := range bus.Channels {
		if ref.AccessorProcs[c] == nil || ref.ServerProcs[c] == nil {
			t.Errorf("channel %s missing generated procedures", c.Name)
		}
		if ref.AccessorProcs[c].Channel != c {
			t.Errorf("channel %s procedure not tagged", c.Name)
		}
	}
}

func procNames(b *spec.Behavior) []string {
	var out []string
	for _, p := range b.Procedures {
		out = append(out, p.Name)
	}
	return out
}

func TestVariableProcessesCreated(t *testing.T) {
	sys, _, ref := generatePQ(t)
	comp2 := sys.FindModule("comp2")
	xproc := sys.FindBehavior("Xproc")
	memproc := sys.FindBehavior("MEMproc")
	if xproc == nil || memproc == nil {
		t.Fatal("variable processes not created")
	}
	if !xproc.Server || !memproc.Server {
		t.Error("variable processes not marked Server")
	}
	if xproc.Owner != comp2 || memproc.Owner != comp2 {
		t.Error("variable processes not on the variable's module")
	}
	if len(ref.Servers) != 2 {
		t.Errorf("%d servers reported", len(ref.Servers))
	}
	// Xproc serves CH0 (write) and CH1 (read); MEMproc serves CH2, CH3.
	if xproc.FindProc("RecvCH0") == nil || xproc.FindProc("SendCH1") == nil {
		t.Errorf("Xproc procedures: %v", procNames(xproc))
	}
	if memproc.FindProc("RecvCH2") == nil || memproc.FindProc("RecvCH3") == nil {
		t.Errorf("MEMproc procedures: %v", procNames(memproc))
	}
}

func TestAccessorBodiesRewritten(t *testing.T) {
	sys, _, ref := generatePQ(t)
	p := sys.FindBehavior("P")
	q := sys.FindBehavior("Q")
	x := sys.FindVariable("X")
	mem := sys.FindVariable("MEM")

	// No direct references to the remote variables remain in P or Q.
	if spec.References(p.Body, x) || spec.References(p.Body, mem) {
		t.Errorf("P still references remote variables:\n%s", spec.FormatStmts(p.Body, ""))
	}
	if spec.References(q.Body, mem) {
		t.Errorf("Q still references MEM:\n%s", spec.FormatStmts(q.Body, ""))
	}
	// P gained the paper's Xtemp temporary.
	var found bool
	for _, v := range p.Variables {
		if v.Name == "Xtemp" {
			found = true
		}
	}
	if !found {
		t.Error("Xtemp not created in P")
	}
	if ref.RewrittenStmts == 0 {
		t.Error("no statements reported rewritten")
	}
	// The rewritten P body is: AD := 5; SendCH0(...); ReceiveCH1(Xtemp);
	// SendCH2(AD-as-addr, Xtemp + 7).
	text := spec.FormatStmts(p.Body, "")
	for _, want := range []string{"SendCH0", "ReceiveCH1(Xtemp)", "SendCH2"} {
		if !strings.Contains(text, want) {
			t.Errorf("P body missing %s:\n%s", want, text)
		}
	}
}

func TestRefinedSystemValidates(t *testing.T) {
	sys, _, _ := generatePQ(t)
	if errs := sys.Validate(); len(errs) != 0 {
		t.Fatalf("refined system invalid: %v", errs)
	}
}

func TestMessageSlicing16Over8(t *testing.T) {
	// Fig. 4: CH0's 16-bit message over the 8-bit bus takes two
	// transfers; the send procedure must carry two word handshakes.
	sys, bus, ref := generatePQ(t)
	_ = sys
	ch0 := bus.Channels[0]
	send := ref.AccessorProcs[ch0]
	waits := countWaits(send.Body)
	// Full handshake: 2 wait-untils per word, 2 words.
	if waits != 4 {
		t.Errorf("SendCH0 has %d waits, want 4 (two words)", waits)
	}
	// CH2 carries 6 addr + 16 data = 22 bits = 3 words over 8 bits.
	ch2 := bus.Channels[2]
	if got := countWaits(ref.AccessorProcs[ch2].Body); got != 6 {
		t.Errorf("SendCH2 has %d waits, want 6 (three words)", got)
	}
}

func countWaits(stmts []spec.Stmt) int {
	n := 0
	spec.WalkStmts(stmts, func(s spec.Stmt) bool {
		if w, ok := s.(*spec.Wait); ok && w.Until != nil {
			n++
		}
		return true
	})
	return n
}

func TestWordSpans(t *testing.T) {
	cases := []struct {
		m, w int
		want [][2]int
	}{
		{16, 8, [][2]int{{7, 0}, {15, 8}}},
		{23, 8, [][2]int{{7, 0}, {15, 8}, {22, 16}}},
		{8, 8, [][2]int{{7, 0}}},
		{3, 8, [][2]int{{2, 0}}},
		{23, 23, [][2]int{{22, 0}}},
	}
	for _, c := range cases {
		if n := wordCount(c.m, c.w); n != len(c.want) {
			t.Errorf("wordCount(%d,%d) = %d, want %d", c.m, c.w, n, len(c.want))
		}
		got := wordSpans(c.m, c.w)
		if len(got) != len(c.want) {
			t.Errorf("wordSpans(%d,%d) = %v", c.m, c.w, got)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("wordSpans(%d,%d)[%d] = %v, want %v", c.m, c.w, i, got[i], c.want[i])
			}
		}
	}
	// wordCount must not overflow where m+w does.
	const maxInt = int(^uint(0) >> 1)
	for _, c := range []struct{ m, w, want int }{
		{0, 8, 0}, {1, maxInt, 1}, {maxInt, maxInt, 1}, {maxInt, 1, maxInt}, {maxInt, 2, maxInt/2 + 1},
	} {
		if got := wordCount(c.m, c.w); got != c.want {
			t.Errorf("wordCount(%d,%d) = %d, want %d", c.m, c.w, got, c.want)
		}
	}
}

func TestSingleChannelBusHasNoIDLines(t *testing.T) {
	sys := spec.NewSystem("single")
	m1 := sys.AddModule("m1")
	m2 := sys.AddModule("m2")
	b := m1.AddBehavior(spec.NewBehavior("B"))
	v := m2.AddVariable(spec.NewVar("V", spec.BitVector(8)))
	l := b.AddVar("l", spec.BitVector(8))
	b.Body = []spec.Stmt{spec.AssignSig(spec.Ref(v), spec.Ref(l))}
	ch := sys.AddChannel(&spec.Channel{Name: "c0", Accessor: b, Var: v, Dir: spec.Write})
	bus := &spec.Bus{Name: "SB", Channels: []*spec.Channel{ch}, Width: 8}
	sys.Buses = append(sys.Buses, bus)
	ref, err := Generate(sys, bus, Config{Protocol: spec.FullHandshake})
	if err != nil {
		t.Fatal(err)
	}
	if bus.Record.FieldType("ID") != nil {
		t.Error("single-channel bus has ID lines")
	}
	if ch.IDBits != 0 {
		t.Error("channel has nonzero IDBits")
	}
	if len(ref.Servers) != 1 {
		t.Fatalf("servers = %d", len(ref.Servers))
	}
	if errs := sys.Validate(); len(errs) != 0 {
		t.Fatalf("refined invalid: %v", errs)
	}
}

func TestHalfHandshakeBusStructure(t *testing.T) {
	sys, bus := buildPQ()
	_, err := Generate(sys, bus, Config{Protocol: spec.HalfHandshake})
	if err != nil {
		t.Fatal(err)
	}
	if bus.Record.Name != "HalfHandShakeBus" {
		t.Errorf("record name = %q", bus.Record.Name)
	}
	if bus.Record.FieldType("DONE") != nil {
		t.Error("half handshake should have no DONE line")
	}
	if bus.TotalLines() != 8+1+2 {
		t.Errorf("total lines = %d", bus.TotalLines())
	}
}

func TestGenerateRejectsWidthlessBus(t *testing.T) {
	sys, bus := buildPQ()
	bus.Width = 0
	if _, err := Generate(sys, bus, Config{}); err == nil {
		t.Fatal("width-0 bus accepted")
	}
}

func TestGenerateRejectsForeignChannel(t *testing.T) {
	sys, bus := buildPQ()
	other := spec.NewSystem("other")
	om1 := other.AddModule("m1")
	om2 := other.AddModule("m2")
	ob := om1.AddBehavior(spec.NewBehavior("OB"))
	ov := om2.AddVariable(spec.NewVar("OV", spec.Bit))
	bus.Channels = append(bus.Channels, &spec.Channel{Name: "ghost", Accessor: ob, Var: ov, Dir: spec.Read})
	if _, err := Generate(sys, bus, Config{}); err == nil {
		t.Fatal("foreign channel accepted")
	}
}

func TestBusSignalNameOverride(t *testing.T) {
	sys, bus := buildPQ()
	ref, err := Generate(sys, bus, Config{BusSignalName: "SYSBUS"})
	if err != nil {
		t.Fatal(err)
	}
	if ref.BusSignal.Name != "SYSBUS" {
		t.Errorf("bus signal name = %q", ref.BusSignal.Name)
	}
}

func TestDispatcherShape(t *testing.T) {
	sys, _, _ := generatePQ(t)
	memproc := sys.FindBehavior("MEMproc")
	if len(memproc.Body) != 1 {
		t.Fatalf("MEMproc body = %d stmts", len(memproc.Body))
	}
	loop, ok := memproc.Body[0].(*spec.Loop)
	if !ok {
		t.Fatalf("MEMproc body is %T, want loop", memproc.Body[0])
	}
	if len(loop.Body) != 2 {
		t.Fatalf("dispatcher loop has %d stmts", len(loop.Body))
	}
	if _, ok := loop.Body[0].(*spec.Wait); !ok {
		t.Error("dispatcher does not begin with a wait")
	}
	ifStmt, ok := loop.Body[1].(*spec.If)
	if !ok {
		t.Fatal("dispatcher missing ID decode")
	}
	// MEMproc serves two channels: one elsif arm plus a foreign-ID else.
	if len(ifStmt.Elifs) != 1 || len(ifStmt.Else) != 1 {
		t.Errorf("dispatcher arms: %d elifs, %d else", len(ifStmt.Elifs), len(ifStmt.Else))
	}
}

func TestRemoteReadInIfCondition(t *testing.T) {
	sys := spec.NewSystem("cond")
	m1 := sys.AddModule("m1")
	m2 := sys.AddModule("m2")
	b := m1.AddBehavior(spec.NewBehavior("B"))
	status := m2.AddVariable(spec.NewVar("STATUS", spec.BitVector(8)))
	l := b.AddVar("l", spec.BitVector(8))
	b.Body = []spec.Stmt{
		&spec.If{
			Cond: spec.Eq(spec.Ref(status), spec.VecString("00000001")),
			Then: []spec.Stmt{spec.AssignVar(spec.Ref(l), spec.VecString("11111111"))},
		},
	}
	ch := sys.AddChannel(&spec.Channel{Name: "c0", Accessor: b, Var: status, Dir: spec.Read})
	bus := &spec.Bus{Name: "SB", Channels: []*spec.Channel{ch}, Width: 8}
	sys.Buses = append(sys.Buses, bus)
	if _, err := Generate(sys, bus, Config{}); err != nil {
		t.Fatal(err)
	}
	if spec.References(b.Body, status) {
		t.Fatalf("condition still reads STATUS:\n%s", spec.FormatStmts(b.Body, ""))
	}
	if len(b.Body) != 2 {
		t.Fatalf("want hoisted receive + if, got %d stmts:\n%s", len(b.Body), spec.FormatStmts(b.Body, ""))
	}
	if _, ok := b.Body[0].(*spec.Call); !ok {
		t.Error("hoisted receive missing before if")
	}
}

func TestRemoteReadInWhileReReceives(t *testing.T) {
	sys := spec.NewSystem("while")
	m1 := sys.AddModule("m1")
	m2 := sys.AddModule("m2")
	b := m1.AddBehavior(spec.NewBehavior("B"))
	flag := m2.AddVariable(spec.NewVar("FLAG", spec.BitVector(1)))
	b.Body = []spec.Stmt{
		&spec.While{
			Cond: spec.Eq(spec.Ref(flag), spec.VecString("0")),
			Body: []spec.Stmt{&spec.Null{}},
		},
	}
	ch := sys.AddChannel(&spec.Channel{Name: "c0", Accessor: b, Var: flag, Dir: spec.Read})
	bus := &spec.Bus{Name: "SB", Channels: []*spec.Channel{ch}, Width: 1}
	sys.Buses = append(sys.Buses, bus)
	if _, err := Generate(sys, bus, Config{}); err != nil {
		t.Fatal(err)
	}
	// hoisted receive + while whose body ends with a re-receive
	if len(b.Body) != 2 {
		t.Fatalf("body = %d stmts:\n%s", len(b.Body), spec.FormatStmts(b.Body, ""))
	}
	w, ok := b.Body[1].(*spec.While)
	if !ok {
		t.Fatalf("second stmt is %T", b.Body[1])
	}
	last := w.Body[len(w.Body)-1]
	if _, ok := last.(*spec.Call); !ok {
		t.Errorf("while body does not re-receive:\n%s", spec.FormatStmts(w.Body, ""))
	}
}

func TestTempNamesFollowPaperStyle(t *testing.T) {
	sys := spec.NewSystem("temps")
	m1 := sys.AddModule("m1")
	m2 := sys.AddModule("m2")
	b := m1.AddBehavior(spec.NewBehavior("B"))
	x := m2.AddVariable(spec.NewVar("X", spec.BitVector(8)))
	l := b.AddVar("l", spec.BitVector(8))
	b.Body = []spec.Stmt{
		spec.AssignVar(spec.Ref(l), spec.Bin(spec.OpAdd, spec.Ref(x), spec.Ref(x))),
	}
	ch := sys.AddChannel(&spec.Channel{Name: "c0", Accessor: b, Var: x, Dir: spec.Read})
	bus := &spec.Bus{Name: "SB", Channels: []*spec.Channel{ch}, Width: 8}
	sys.Buses = append(sys.Buses, bus)
	ref, err := Generate(sys, bus, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Temps) != 2 {
		t.Fatalf("temps = %d, want 2 (X read twice)", len(ref.Temps))
	}
	if ref.Temps[0].Name != "Xtemp" || ref.Temps[1].Name != "Xtemp2" {
		t.Errorf("temp names = %s, %s", ref.Temps[0].Name, ref.Temps[1].Name)
	}
}

func TestHardwiredPortSingleChannelOnly(t *testing.T) {
	sys, bus := buildPQ()
	_, err := Generate(sys, bus, Config{Protocol: spec.HardwiredPort})
	if err == nil || !strings.Contains(err.Error(), "hardwired") {
		t.Fatalf("err = %v, want hardwired-sharing rejection", err)
	}

	// A single-channel bus is fine: one message per clock, no control
	// or ID lines.
	sys2 := spec.NewSystem("hw")
	m1 := sys2.AddModule("m1")
	m2 := sys2.AddModule("m2")
	b := m1.AddBehavior(spec.NewBehavior("B"))
	v := m2.AddVariable(spec.NewVar("V", spec.BitVector(8)))
	l := b.AddVar("l", spec.BitVector(8))
	b.Body = []spec.Stmt{spec.AssignVar(spec.Ref(v), spec.Ref(l))}
	ch := sys2.AddChannel(&spec.Channel{Name: "c0", Accessor: b, Var: v, Dir: spec.Write})
	hwbus := &spec.Bus{Name: "HW", Channels: []*spec.Channel{ch}, Width: 8}
	sys2.Buses = append(sys2.Buses, hwbus)
	if _, err := Generate(sys2, hwbus, Config{Protocol: spec.HardwiredPort}); err != nil {
		t.Fatal(err)
	}
	if hwbus.TotalLines() != 8 {
		t.Errorf("hardwired port lines = %d, want 8 (data only)", hwbus.TotalLines())
	}
}
