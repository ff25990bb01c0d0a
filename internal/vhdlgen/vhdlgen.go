// Package vhdlgen renders specification IR systems as VHDL-flavored text
// — the listing form the paper's Figs. 4 and 5 show for the refined
// specification (bus record declaration, send/receive procedures,
// rewritten behaviors, generated variable processes).
//
// The output is documentation-grade VHDL: it mirrors the paper's style
// (records, signal declarations, processes with procedures) and is
// intended for inspection and diffing. The executable semantics of a
// refined system live in internal/sim, which interprets the same IR the
// emitter prints, so what you read is what ran.
//
// The renderer appends every line into one byte buffer: expressions,
// types and literals are written in place (strconv for integers, a bit
// loop for vector literals), never built as intermediate strings.
package vhdlgen

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/bits"
	"repro/internal/spec"
)

// Emit renders the whole system.
func Emit(sys *spec.System) string {
	// 8 KiB holds PQ's 6.9 KB listing without regrowing.
	return string(AppendEmit(make([]byte, 0, 8<<10), sys))
}

// AppendEmit appends the listing Emit renders to dst and returns the
// extended buffer. A caller that only hashes or writes the listing can
// render into a buffer it reuses, with no string copy.
func AppendEmit(dst []byte, sys *spec.System) []byte {
	e := emitter{buf: dst}
	e.line("-- System ", sys.Name, " (refined specification)")
	e.line("-- Generated by interface synthesis: bus + protocol generation.")
	e.blank()

	// Bus record types and global signals.
	for _, bus := range sys.Buses {
		if bus.Record.Name != "" {
			e.record(bus.Record)
			e.blank()
		}
	}
	for _, g := range sys.Globals {
		e.open("signal ", g.Name, " : ")
		e.typ(g.Type)
		e.close(" ;")
	}
	if len(sys.Globals) > 0 {
		e.blank()
	}

	for _, m := range sys.Modules {
		e.module(m)
		e.blank()
	}

	// Channel-to-bus map as a trailer comment, like Fig. 3's channel
	// annotations.
	for _, bus := range sys.Buses {
		e.open("-- bus ", bus.Name, " : width ")
		e.int(bus.Width)
		e.put(", protocol ", bus.Protocol.String(), ", ")
		e.int(bus.Protocol.ControlLines())
		e.put(" control + ")
		e.int(bus.IDBits())
		e.close(" id lines")
		for _, c := range bus.Channels {
			dir := "reading"
			if c.Dir == spec.Write {
				dir = "writing"
			}
			e.open("--   ")
			mark := len(e.buf)
			e.put(c.Name)
			e.pad(mark, 6)
			e.put(" id ")
			mark = len(e.buf)
			if c.ID.Width() == 0 {
				e.put("-")
			}
			e.buf = appendBits(e.buf, c.ID)
			e.pad(mark, 4)
			e.put(" : process ", c.Accessor.Name, " ", dir, " variable ", c.Var.Name, " (")
			e.int(c.DataBits())
			e.put(" data + ")
			e.int(c.AddrBits())
			e.close(" addr bits)")
		}
	}
	return e.buf
}

// EmitBehavior renders a single behavior as a process.
func EmitBehavior(b *spec.Behavior) string {
	var e emitter
	e.behavior(b)
	return string(e.buf)
}

// EmitProcedure renders a single procedure (e.g. a generated SendCH0 for
// comparison with the paper's Fig. 4).
func EmitProcedure(p *spec.Procedure) string {
	var e emitter
	e.procedure(p)
	return string(e.buf)
}

// emitter appends indented lines to buf. A line is either written
// whole by line, or opened, extended with put/expr/typ/int and closed.
type emitter struct {
	buf   []byte
	depth int // indent level, two spaces each
}

// open starts a line at the current indent.
func (e *emitter) open(parts ...string) {
	for i := 0; i < e.depth; i++ {
		e.buf = append(e.buf, "  "...)
	}
	e.put(parts...)
}

func (e *emitter) put(parts ...string) {
	for _, p := range parts {
		e.buf = append(e.buf, p...)
	}
}

// close ends the open line.
func (e *emitter) close(parts ...string) {
	e.put(parts...)
	e.buf = append(e.buf, '\n')
}

func (e *emitter) line(parts ...string) {
	e.open(parts...)
	e.close()
}

func (e *emitter) blank() { e.buf = append(e.buf, '\n') }

func (e *emitter) int(v int)        { e.buf = strconv.AppendInt(e.buf, int64(v), 10) }
func (e *emitter) expr(x spec.Expr) { e.buf = appendExpr(e.buf, x) }
func (e *emitter) typ(t spec.Type)  { e.buf = appendType(e.buf, t) }

// pad appends spaces until the text written since mark is width runes
// wide, as fmt's %-*s does.
func (e *emitter) pad(mark, width int) {
	for n := utf8.RuneCount(e.buf[mark:]); n < width; n++ {
		e.buf = append(e.buf, ' ')
	}
}

// decl writes "<kind> <name> : <type>".
func (e *emitter) decl(v *spec.Variable) {
	e.put(v.Kind.String(), " ", v.Name, " : ")
	e.typ(v.Type)
}

func (e *emitter) record(r spec.RecordType) {
	e.line("type ", r.Name, " is record")
	e.depth++
	// Group consecutive same-type fields like the paper: "START, DONE : bit ;"
	i := 0
	for i < len(r.Fields) {
		j := i
		for j+1 < len(r.Fields) && r.Fields[j+1].Type.Equal(r.Fields[i].Type) {
			j++
		}
		e.open(r.Fields[i].Name)
		for k := i + 1; k <= j; k++ {
			e.put(", ", r.Fields[k].Name)
		}
		e.put(" : ")
		e.typ(r.Fields[i].Type)
		e.close(" ;")
		i = j + 1
	}
	e.depth--
	e.line("end record ;")
}

func (e *emitter) module(m *spec.Module) {
	e.line("-- module ", m.Name)
	for _, v := range m.Variables {
		e.open("-- ")
		e.decl(v)
		e.close()
	}
	for _, b := range m.Behaviors {
		e.behavior(b)
		e.blank()
	}
}

func (e *emitter) behavior(b *spec.Behavior) {
	tag := ""
	if b.Server {
		tag = "  -- generated variable process"
	}
	e.line("process ", b.Name, tag)
	e.depth++
	for _, v := range b.Variables {
		e.open()
		e.decl(v)
		e.close(" ;")
	}
	for _, p := range b.Procedures {
		e.procedure(p)
	}
	e.depth--
	e.line("begin")
	e.block(b.Body)
	e.line("end process ", b.Name, " ;")
}

func (e *emitter) procedure(p *spec.Procedure) {
	e.open("procedure ", p.Name, "(")
	for i, prm := range p.Params {
		if i > 0 {
			e.put("; ")
		}
		e.put(prm.Var.Name, " : ", prm.Mode.String(), " ")
		e.typ(prm.Var.Type)
	}
	e.close(") is")
	e.depth++
	for _, l := range p.Locals {
		e.open("variable ", l.Name, " : ")
		e.typ(l.Type)
		e.close(" ;")
	}
	e.depth--
	e.line("begin")
	e.block(p.Body)
	e.line("end ", p.Name, " ;")
}

// block writes statements one indent level deeper.
func (e *emitter) block(stmts []spec.Stmt) {
	e.depth++
	for _, s := range stmts {
		e.stmt(s)
	}
	e.depth--
}

func (e *emitter) stmt(s spec.Stmt) {
	switch s := s.(type) {
	case *spec.Assign:
		op := " := "
		if base := spec.BaseVar(s.LHS); base != nil && base.Kind == spec.KindSignal {
			op = " <= "
		} else if s.Kind == spec.AssignSignal {
			op = " <= "
		}
		e.open()
		e.expr(s.LHS)
		e.put(op)
		e.expr(s.RHS)
		e.close(" ;")
	case *spec.If:
		e.open("if ")
		e.expr(s.Cond)
		e.close(" then")
		e.block(s.Then)
		for _, arm := range s.Elifs {
			e.open("elsif ")
			e.expr(arm.Cond)
			e.close(" then")
			e.block(arm.Body)
		}
		if len(s.Else) > 0 {
			e.line("else")
			e.block(s.Else)
		}
		e.line("end if ;")
	case *spec.For:
		e.open("for ", s.Var.Name, " in ")
		e.expr(s.From)
		e.put(" to ")
		e.expr(s.To)
		e.close(" loop")
		e.block(s.Body)
		e.line("end loop ;")
	case *spec.While:
		e.open("while ")
		e.expr(s.Cond)
		e.close(" loop")
		e.block(s.Body)
		e.line("end loop ;")
	case *spec.Loop:
		e.line("loop")
		e.block(s.Body)
		e.line("end loop ;")
	case *spec.Exit:
		e.line("exit ;")
	case *spec.Return:
		e.line("return ;")
	case *spec.Wait:
		e.open("wait")
		if len(s.On) > 0 {
			e.put(" on ", s.On[0].Name)
			for _, v := range s.On[1:] {
				e.put(", ", v.Name)
			}
		}
		if s.Until != nil {
			e.put(" until ")
			e.expr(s.Until)
		}
		if s.HasFor {
			e.put(" for ")
			e.buf = strconv.AppendInt(e.buf, s.For, 10)
			e.put(" ns")
		}
		e.close(" ;")
		if s.TimedOut != nil && s.Until != nil {
			// The standard VHDL idiom for detecting a bounded-wait
			// expiry: re-evaluate the condition after the wait.
			e.open(s.TimedOut.Name, " := not (")
			e.expr(s.Until)
			e.close(") ;")
		}
	case *spec.Call:
		e.open(s.Proc.Name, "(")
		for i, a := range s.Args {
			if i > 0 {
				e.put(", ")
			}
			e.expr(a)
		}
		e.close(") ;")
	case *spec.Null:
		e.line("null ;")
	default:
		e.line("-- <unprintable ", goType(s), ">")
	}
}

// appendExpr appends an expression in VHDL syntax.
func appendExpr(b []byte, x spec.Expr) []byte {
	switch x := x.(type) {
	case *spec.IntLit:
		return strconv.AppendInt(b, x.Value, 10)
	case *spec.VecLit:
		q := byte('"')
		if x.Value.Width() == 1 {
			q = '\''
		}
		b = appendBits(append(b, q), x.Value)
		return append(b, q)
	case *spec.BoolLit:
		return strconv.AppendBool(b, x.Value)
	case *spec.VarRef:
		return append(b, x.Var.Name...)
	case *spec.Index:
		b = append(appendExpr(b, x.Arr), '(')
		return append(appendExpr(b, x.Index), ')')
	case *spec.SliceExpr:
		b = append(appendExpr(b, x.X), '(')
		b = append(appendExpr(b, x.Hi), " downto "...)
		return append(appendExpr(b, x.Lo), ')')
	case *spec.FieldRef:
		b = append(appendExpr(b, x.X), '.')
		return append(b, x.Field...)
	case *spec.Binary:
		b = append(appendExpr(append(b, '('), x.X), ' ')
		b = append(append(b, binOp(x.Op)...), ' ')
		return append(appendExpr(b, x.Y), ')')
	case *spec.Unary:
		if x.Op == spec.OpNeg {
			b = append(b, "(-"...)
		} else {
			b = append(b, "(not "...)
		}
		return append(appendExpr(b, x.X), ')')
	case *spec.Conv:
		switch t := x.To.(type) {
		case spec.IntegerType:
			b = append(b, "conv_integer("...)
			return append(appendExpr(b, x.X), ')')
		case spec.BitVectorType:
			b = append(appendExpr(append(b, "conv_bit_vector("...), x.X), ", "...)
			return append(strconv.AppendInt(b, int64(t.Width), 10), ')')
		default:
			b = append(append(append(b, "conv<"...), x.To.String()...), ">("...)
			return append(appendExpr(b, x.X), ')')
		}
	}
	return append(append(append(b, '<'), goType(x)...), '>')
}

// appendBits appends a vector's bits, most significant first.
func appendBits(b []byte, v bits.Vector) []byte {
	for i := v.Width() - 1; i >= 0; i-- {
		if v.Bit(i) {
			b = append(b, '1')
		} else {
			b = append(b, '0')
		}
	}
	return b
}

func binOp(op spec.Op) string {
	switch op {
	case spec.OpConcat:
		return "&"
	case spec.OpNeq:
		return "/="
	}
	return op.String()
}

// appendType appends a type as declared in VHDL: records by name,
// arrays with their index range.
func appendType(b []byte, t spec.Type) []byte {
	switch t := t.(type) {
	case spec.RecordType:
		return append(b, t.Name...)
	case spec.ArrayType:
		b = strconv.AppendInt(append(b, "array("...), int64(t.Lo), 10)
		b = strconv.AppendInt(append(b, " to "...), int64(t.Lo+t.Length-1), 10)
		return appendType(append(b, ") of "...), t.Elem)
	case spec.BitVectorType:
		b = strconv.AppendInt(append(b, "bit_vector("...), int64(t.Width-1), 10)
		return append(b, " downto 0)"...)
	default:
		return append(b, t.String()...)
	}
}

// goType names a value's dynamic type as fmt's %T verb does, for IR
// nodes the renderer does not know.
func goType(x any) string {
	if x == nil {
		return "<nil>"
	}
	return reflect.TypeOf(x).String()
}

// Summary renders a compact synthesis report: buses, their wires and the
// per-channel procedure names, in channel-ID order (protocol generation
// assigns IDs by position on the bus).
func Summary(sys *spec.System) string {
	var b strings.Builder
	for _, bus := range sys.Buses {
		fmt.Fprintf(&b, "bus %s: %d data + %d control + %d id = %d lines, protocol %s\n",
			bus.Name, bus.Width, bus.Protocol.ControlLines(), bus.IDBits(), bus.TotalLines(), bus.Protocol)
		for _, c := range bus.Channels {
			fmt.Fprintf(&b, "  %-6s id=%-4s %s -> %s (%d bits/message)\n",
				c.Name, c.ID, c.Accessor.Name, c.Var.Name, c.MessageBits())
		}
	}
	return b.String()
}
