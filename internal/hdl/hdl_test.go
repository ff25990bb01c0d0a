package hdl

import (
	"errors"
	"regexp"
	"strings"
	"testing"

	"repro/internal/spec"
)

const pqSource = `
-- The paper's Fig. 3 system.
system PQ is
  module comp1 is
    behavior P is
      variable AD : integer;
    begin
      AD := 5;
      X <= 32;
      MEM(AD) := X + 7;
    end behavior;
    behavior Q is
      variable COUNT : bit_vector(15 downto 0);
    begin
      COUNT := 9;
      MEM(60) := COUNT;
    end behavior;
  end module;
  module comp2 is
    variable X : bit_vector(15 downto 0);
    variable MEM : array(0 to 63) of bit_vector(15 downto 0);
  end module;
  channel CH0 : P writes X;
  channel CH1 : P reads X;
  channel CH2 : P writes MEM;
  channel CH3 : Q writes MEM;
end system;
`

func TestParsePQ(t *testing.T) {
	sys, err := Parse(pqSource)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Name != "PQ" || len(sys.Modules) != 2 {
		t.Fatalf("system shape wrong: %s, %d modules", sys.Name, len(sys.Modules))
	}
	p := sys.FindBehavior("P")
	if p == nil || len(p.Body) != 3 {
		t.Fatalf("P body = %v", p)
	}
	mem := sys.FindVariable("MEM")
	at, ok := mem.Type.(spec.ArrayType)
	if !ok || at.Length != 64 || at.Elem.BitWidth() != 16 {
		t.Fatalf("MEM type = %v", mem.Type)
	}
	if len(sys.Channels) != 4 {
		t.Fatalf("channels = %d", len(sys.Channels))
	}
	if sys.Channels[1].Dir != spec.Read {
		t.Error("CH1 direction wrong")
	}
}

// lexAll pulls every token from a lexer, as the parser does.
func lexAll(src string) ([]token, error) {
	lx := lexer{src: src}
	var toks []token
	for {
		t := lx.next()
		if lx.err != nil {
			return nil, lx.err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}

func TestLexerBasics(t *testing.T) {
	toks, err := lexAll(`x := "1010"; y <= X"0A"; -- comment
z := '1';`)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []tokKind{}
	for _, tk := range toks {
		kinds = append(kinds, tk.kind)
	}
	want := []tokKind{
		tokIdent, tokSymbol, tokVecLit, tokSymbol,
		tokIdent, tokSymbol, tokHexVecLit, tokSymbol,
		tokIdent, tokSymbol, tokBitLit, tokSymbol, tokEOF,
	}
	if len(kinds) != len(want) {
		t.Fatalf("token count = %d, want %d: %v", len(kinds), len(want), toks)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("token %d kind = %d, want %d (%v)", i, kinds[i], want[i], toks[i])
		}
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{`x := "01`, `'2'`, `@`, `y := X"0`} {
		if _, err := lexAll(src); err == nil {
			t.Errorf("lexAll(%q) accepted", src)
		}
	}
}

func TestLexerPositions(t *testing.T) {
	src := "a\n  b"
	toks, err := lexAll(src)
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].off != 4 {
		t.Fatalf("offset = %d, want 4", toks[1].off)
	}
	if line, col := lineCol(src, toks[1].off); line != 2 || col != 3 {
		t.Fatalf("position = %d:%d", line, col)
	}
}

func TestParseErrorsCarryPositions(t *testing.T) {
	src := "system S is\n  module M is\n    variable v : badtype;\n  end module;\nend system;"
	_, err := Parse(src)
	if err == nil {
		t.Fatal("bad type accepted")
	}
	if !strings.Contains(err.Error(), "3:") {
		t.Errorf("error lacks line info: %v", err)
	}
}

func TestParseRejectsUnknownName(t *testing.T) {
	src := `system S is
  module M is
    behavior B is
    begin
      ghost := 1;
    end behavior;
  end module;
end system;`
	_, err := Parse(src)
	if err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("err = %v", err)
	}
}

func TestParseRejectsIntraModuleChannelViaValidate(t *testing.T) {
	src := `system S is
  module M is
    variable V : bit;
    behavior B is
    begin
      V := '1';
    end behavior;
  end module;
  channel c : B writes V;
end system;`
	if _, err := Parse(src); err == nil {
		t.Fatal("intra-module channel accepted")
	}
}

func TestParseControlFlow(t *testing.T) {
	src := `system S is
  module M is
    behavior B is
      variable n : integer;
      variable flag : boolean;
    begin
      for i in 0 to 9 loop
        n := n + i;
      end loop;
      while n > 0 loop
        n := n - 2;
      end loop;
      loop
        n := n + 1;
        if n >= 5 then
          exit;
        elsif n = 3 then
          null;
        else
          flag := true;
        end if;
      end loop;
      wait for 10;
    end behavior;
  end module;
end system;`
	sys, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	b := sys.FindBehavior("B")
	if len(b.Body) != 4 {
		t.Fatalf("body stmts = %d", len(b.Body))
	}
	if _, ok := b.Body[0].(*spec.For); !ok {
		t.Error("first stmt not a for")
	}
	// Loop var i was implicitly declared.
	found := false
	for _, v := range b.Variables {
		if v.Name == "i" {
			found = true
		}
	}
	if !found {
		t.Error("loop variable not auto-declared")
	}
}

func TestParseProcedures(t *testing.T) {
	src := `system S is
  module M is
    variable out1 : integer;
    behavior B is
      variable r : integer;
      procedure double(a : in integer; res : out integer) is
        variable tmp : integer;
      begin
        tmp := a * 2;
        res := tmp;
      end procedure;
    begin
      double(21, r);
      out1 := r;
    end behavior;
  end module;
end system;`
	sys, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	b := sys.FindBehavior("B")
	proc := b.FindProc("double")
	if proc == nil || len(proc.Params) != 2 || proc.Params[1].Mode != spec.ModeOut {
		t.Fatalf("procedure shape wrong: %v", proc)
	}
	if len(proc.Locals) != 1 {
		t.Errorf("locals = %d", len(proc.Locals))
	}
}

func TestParseRejectsArityMismatch(t *testing.T) {
	src := `system S is
  module M is
    behavior B is
      procedure p(a : in integer) is
      begin
        null;
      end procedure;
    begin
      p(1, 2);
    end behavior;
  end module;
end system;`
	if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), "argument") {
		t.Fatalf("err = %v", err)
	}
}

func TestParseSlicesAndConcat(t *testing.T) {
	src := `system S is
  module M is
    behavior B is
      variable v : bit_vector(15 downto 0);
      variable hi : bit_vector(7 downto 0);
    begin
      hi := v(15 downto 8);
      v := hi & hi;
      v(3 downto 0) := "1111";
    end behavior;
  end module;
end system;`
	sys, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	b := sys.FindBehavior("B")
	if len(b.Body) != 3 {
		t.Fatal("body")
	}
	a0 := b.Body[0].(*spec.Assign)
	if _, ok := a0.RHS.(*spec.SliceExpr); !ok {
		t.Errorf("rhs not a slice: %T", a0.RHS)
	}
	a1 := b.Body[1].(*spec.Assign)
	bin, ok := a1.RHS.(*spec.Binary)
	if !ok || bin.Op != spec.OpConcat {
		t.Errorf("concat not parsed: %v", a1.RHS)
	}
}

func TestParseSliceOutOfRangeRejected(t *testing.T) {
	src := `system S is
  module M is
    behavior B is
      variable v : bit_vector(7 downto 0);
      variable w : bit_vector(7 downto 0);
    begin
      w := v(12 downto 5);
    end behavior;
  end module;
end system;`
	if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("err = %v", err)
	}
}

func TestParseConversions(t *testing.T) {
	src := `system S is
  module M is
    behavior B is
      variable v : bit_vector(7 downto 0);
      variable n : integer;
    begin
      n := conv_integer(v);
      v := conv_bit_vector(n, 8);
      n := conv_integer_signed(v);
    end behavior;
  end module;
end system;`
	sys, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	b := sys.FindBehavior("B")
	c0 := b.Body[0].(*spec.Assign).RHS.(*spec.Conv)
	if c0.Signed {
		t.Error("conv_integer should be unsigned")
	}
	c2 := b.Body[2].(*spec.Assign).RHS.(*spec.Conv)
	if !c2.Signed {
		t.Error("conv_integer_signed should be signed")
	}
}

func TestParseWaitForms(t *testing.T) {
	src := `system S is
  module M is
    signal REQ : bit;
    behavior B is
    begin
      wait on REQ;
      wait until REQ = '1';
      wait for 42;
      wait until REQ = '0' for 10;
    end behavior;
  end module;
end system;`
	sys, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	b := sys.FindBehavior("B")
	w0 := b.Body[0].(*spec.Wait)
	if len(w0.On) != 1 {
		t.Error("wait on wrong")
	}
	w3 := b.Body[3].(*spec.Wait)
	if w3.Until == nil || !w3.HasFor || w3.For != 10 {
		t.Error("combined wait wrong")
	}
}

func TestParseServerBehavior(t *testing.T) {
	src := `system S is
  module M is
    behavior Srv server is
    begin
      loop
        wait for 1;
      end loop;
    end behavior;
    behavior Fg is
    begin
      null;
    end behavior;
  end module;
end system;`
	sys, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if !sys.FindBehavior("Srv").Server {
		t.Error("server flag not set")
	}
	if sys.FindBehavior("Fg").Server {
		t.Error("foreground flagged as server")
	}
}

func TestParseInitializers(t *testing.T) {
	src := `system S is
  module M is
    variable n : integer := 42;
    variable v : bit_vector(7 downto 0) := X"A5";
    behavior B is
    begin
      null;
    end behavior;
  end module;
end system;`
	sys, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	n := sys.FindVariable("n")
	if lit, ok := n.Init.(*spec.IntLit); !ok || lit.Value != 42 {
		t.Errorf("n init = %v", n.Init)
	}
	v := sys.FindVariable("v")
	if lit, ok := v.Init.(*spec.VecLit); !ok || lit.Value.String() != "10100101" {
		t.Errorf("v init = %v", v.Init)
	}
}

func TestHexLiteralElaboration(t *testing.T) {
	toks, err := lexAll(`X"0A"`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].kind != tokHexVecLit || toks[0].text != "0A" {
		t.Fatalf("hex token = %v", toks[0])
	}
	v, err := vecOf(&astVec{v: "0A", hex: true})
	if err != nil {
		t.Fatal(err)
	}
	if v.Width() != 8 || v.Uint64() != 0x0A {
		t.Fatalf("hex value = %s", v)
	}
}

func TestParseMixedIntVecComparison(t *testing.T) {
	src := `system S is
  module M is
    behavior B is
      variable v : bit_vector(7 downto 0);
      variable ok : boolean;
    begin
      if v = 32 then
        ok := true;
      end if;
    end behavior;
  end module;
end system;`
	sys, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	b := sys.FindBehavior("B")
	ifStmt := b.Body[0].(*spec.If)
	bin := ifStmt.Cond.(*spec.Binary)
	if _, ok := bin.Y.(*spec.Conv); !ok {
		t.Errorf("integer literal not harmonized to vector: %v", bin.Y)
	}
}

func TestParseErrorCoverage(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"missing-system", "module M is end module;", "system"},
		{"missing-is", "system S module M is end module; end system;", "is"},
		{"bad-channel-dir", `system S is
  module M is
    behavior B is begin null; end behavior;
  end module;
  module N is
    variable V : bit;
  end module;
  channel c : B touches V;
end system;`, "reads"},
		{"unknown-channel-behavior", `system S is
  module M is
    variable V : bit;
  end module;
  module N is
    behavior B is begin null; end behavior;
  end module;
  channel c : GHOST writes V;
end system;`, "unknown behavior"},
		{"trailing-junk", "system S is end system; extra", "trailing"},
		{"unterminated-if", `system S is
  module M is
    behavior B is begin
      if true then null;
    end behavior;
  end module;
end system;`, ""},
		{"empty-vector-range", `system S is
  module M is
    variable v : bit_vector(-1 downto 0);
  end module;
end system;`, "empty"},
		{"array-backwards", `system S is
  module M is
    variable v : array(7 to 0) of bit;
  end module;
end system;`, "empty array"},
		{"call-unknown-proc", `system S is
  module M is
    behavior B is begin
      ghostproc(1);
    end behavior;
  end module;
end system;`, "unknown"},
		{"slice-nonvector", `system S is
  module M is
    behavior B is
      variable n : integer;
      variable m : integer;
    begin
      n := m(3 downto 0);
    end behavior;
  end module;
end system;`, "non-bit_vector"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil {
				t.Fatalf("accepted:\n%s", c.src)
			}
			if c.want != "" && !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want substring %q", err, c.want)
			}
		})
	}
}

func TestParseDeepExpressionPrecedence(t *testing.T) {
	src := `system S is
  module M is
    behavior B is
      variable a : integer;
      variable b : integer;
      variable c : integer;
      variable ok : boolean;
    begin
      a := 1 + 2 * 3;
      b := (1 + 2) * 3;
      ok := a < b and b > 0 or a = 7;
      c := a mod 4 - b / 2;
    end behavior;
  end module;
end system;`
	sys, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	beh := sys.FindBehavior("B")
	// a := 1 + (2*3): top op must be +.
	a0 := beh.Body[0].(*spec.Assign).RHS.(*spec.Binary)
	if a0.Op != spec.OpAdd {
		t.Errorf("precedence: top of 1+2*3 is %v", a0.Op)
	}
	if inner, ok := a0.Y.(*spec.Binary); !ok || inner.Op != spec.OpMul {
		t.Errorf("precedence: rhs of + is %v", a0.Y)
	}
	a1 := beh.Body[1].(*spec.Assign).RHS.(*spec.Binary)
	if a1.Op != spec.OpMul {
		t.Errorf("parens: top of (1+2)*3 is %v", a1.Op)
	}
	// or binds loosest: top of the boolean expr is or.
	a2 := beh.Body[2].(*spec.Assign).RHS.(*spec.Binary)
	if a2.Op != spec.OpOr {
		t.Errorf("boolean precedence: top is %v", a2.Op)
	}
}

func TestConstantTypeExpressions(t *testing.T) {
	// Width and range expressions computed at elaboration time.
	src := `system S is
  module M is
    variable v : bit_vector(2 * 8 - 1 downto 0);
    variable a : array(0 to 4 + 3) of bit;
    variable w : bit_vector((16 / 2) - 1 downto 0);
  end module;
end system;`
	sys, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if sys.FindVariable("v").Type.BitWidth() != 16 {
		t.Errorf("v width = %d", sys.FindVariable("v").Type.BitWidth())
	}
	if sys.FindVariable("a").Type.(spec.ArrayType).Length != 8 {
		t.Errorf("a length = %d", sys.FindVariable("a").Type.(spec.ArrayType).Length)
	}
	if sys.FindVariable("w").Type.BitWidth() != 8 {
		t.Errorf("w width = %d", sys.FindVariable("w").Type.BitWidth())
	}
}

func TestNegativeConstantInInit(t *testing.T) {
	src := `system S is
  module M is
    variable n : integer := -7;
  end module;
end system;`
	sys, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if lit, ok := sys.FindVariable("n").Init.(*spec.IntLit); !ok || lit.Value != -7 {
		t.Errorf("init = %v", sys.FindVariable("n").Init)
	}
}

func TestBitSelectOfVector(t *testing.T) {
	src := `system S is
  module M is
    behavior B is
      variable v : bit_vector(7 downto 0);
      variable b0 : bit;
    begin
      b0 := v(3);
    end behavior;
  end module;
end system;`
	sys, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	a := sys.FindBehavior("B").Body[0].(*spec.Assign)
	sl, ok := a.RHS.(*spec.SliceExpr)
	if !ok || sl.Width != 1 {
		t.Fatalf("bit select = %v", a.RHS)
	}
}

// TestParseRejectsDeepNesting: nesting past maxDepth is a positioned
// error, not a stack overflow (which no recover can catch) or an
// elaboration quadratic in the depth. The parenthesized initializer is
// about 2 MB, under ifsynd's 8 MiB body limit.
func TestParseRejectsDeepNesting(t *testing.T) {
	cases := []struct{ name, src string }{
		{"parentheses", inModule("    variable v : integer := " +
			strings.Repeat("(", 1000000) + "1" + strings.Repeat(")", 1000000) + ";\n")},
		{"not", inBehavior("      variable b : boolean;\n",
			"      b := "+strings.Repeat("not ", 100000)+"b;\n")},
		{"if", inBehavior("      variable b : boolean;\n",
			strings.Repeat("      if b then\n", 1000)+"      null;\n"+strings.Repeat("      end if;\n", 1000))},
		{"operator-chain", inBehavior("      variable n : integer;\n",
			"      n := n"+strings.Repeat(" + n", 100000)+";\n")},
		{"postfix-chain", inBehavior("      variable n : integer;\n",
			"      n := n"+strings.Repeat(".f", 100000)+";\n")},
		{"array-type", inModule("    variable v : " + strings.Repeat("array(0 to 1) of ", 100000) + "bit;\n")},
	}
	want := regexp.MustCompile(`^\d+:\d+: nesting deeper than 256 levels$`)
	for _, c := range cases {
		_, err := Parse(c.src)
		var perr *Error
		if !errors.As(err, &perr) || !want.MatchString(err.Error()) {
			t.Errorf("%s: err = %v, want a positioned nesting error", c.name, err)
		}
	}
	// 100 nested parentheses are 200 levels: still accepted.
	src := inModule("    variable v : integer := " + strings.Repeat("(", 100) + "1" + strings.Repeat(")", 100) + ";\n")
	if _, err := Parse(src); err != nil {
		t.Errorf("100 nested parentheses: %v", err)
	}
}

// TestKeywordFolding: every keyword is found in any letter case and
// maps to its lower-case spelling without allocating; words that only
// resemble one are identifiers.
func TestKeywordFolding(t *testing.T) {
	for kw := range keywords {
		for _, w := range []string{kw, strings.ToUpper(kw), strings.ToUpper(kw[:1]) + kw[1:]} {
			if got, ok := keyword(w); !ok || got != kw {
				t.Errorf("keyword(%q) = %q, %v; want %q", w, got, ok, kw)
			}
		}
		for _, w := range []string{kw[:len(kw)-1], kw + "s", kw + "_", "q" + kw} {
			if got, ok := keyword(w); ok {
				t.Errorf("keyword(%q) = %q, want an identifier", w, got)
			}
		}
	}
	if n := testing.AllocsPerRun(10, func() { keyword("Bit_Vector") }); n != 0 {
		t.Errorf("keyword folding allocates %.0f times", n)
	}
}

// TestElaborationLimits: widths and lengths up to the limits elaborate
// to the declared types; one past each limit is rejected.
func TestElaborationLimits(t *testing.T) {
	declare := func(typ string) string {
		return "system S is\n  module M is\n    variable v : " + typ + ";\n  end module;\nend system;\n"
	}
	convert := func(w string) string {
		return "system S is\n  module M is\n    behavior B is\n      variable n : integer;\n" +
			"      variable v : bit_vector(7 downto 0);\n    begin\n      v := conv_bit_vector(n, " + w + ");\n" +
			"    end behavior;\n  end module;\nend system;\n"
	}
	for _, c := range []struct {
		src  string
		want spec.Type // nil: rejected
	}{
		{declare("bit_vector(4095 downto 0)"), spec.BitVector(4096)},
		{declare("bit_vector(4096 downto 0)"), nil},
		{declare("array(-5 to 65530) of bit"), spec.ArrayType{Length: 65536, Lo: -5, Elem: spec.Bit}},
		{declare("array(0 to 65536) of bit"), nil},
		{declare("array(1 to 256) of array(0 to 255) of bit"), spec.ArrayType{Length: 256, Lo: 1, Elem: spec.Array(256, spec.Bit)}},
		{declare("array(1 to 257) of array(0 to 255) of bit"), nil},
		{convert("1"), spec.BitVector(1)},
		{convert("4096"), spec.BitVector(4096)},
		{convert("0"), nil},
		{convert("4097"), nil},
	} {
		sys, err := Parse(c.src)
		if c.want == nil {
			if e := (*Error)(nil); !errors.As(err, &e) {
				t.Errorf("accepted or unpositioned (%v):\n%s", err, c.src)
			}
			continue
		}
		if err != nil {
			t.Errorf("%v:\n%s", err, c.src)
			continue
		}
		var got spec.Type
		if b := sys.Modules[0].Behaviors; len(b) > 0 {
			got = b[0].Body[0].(*spec.Assign).RHS.(*spec.Conv).To
		} else {
			got = sys.Modules[0].Variables[0].Type
		}
		if got.String() != c.want.String() {
			t.Errorf("type %s, want %s:\n%s", got, c.want, c.src)
		}
	}
}
