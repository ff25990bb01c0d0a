package protogen

import "repro/internal/spec"

// Shared nodes. A refinement repeats the same bus-line reads, literals,
// handshake conditions and leaf statements in every word of every
// channel: "B.START <= '1'" appears in each accessor-driven word, "wait
// until B.DONE = '1'" after it. The generator builds each such node once
// per Generate call and places the same node at every position, so a
// refinement's allocations grow with the distinct words it sends, not
// with the statements it prints. The spec package doc states the
// contract that makes this sound: no pass changes a node after building
// it. Nothing here outlives its Generate call or is shared between
// systems.

// busLine holds the nodes built on one field F of the bus record.
type busLine struct {
	ref   *spec.FieldRef  // B.F
	is    [2]*spec.Binary // B.F = '0', B.F = '1'
	set   [2]*spec.Assign // B.F <= '0', B.F <= '1'
	until [2]*spec.Wait   // wait until B.F = '0', wait until B.F = '1'
}

// line returns (building on first use) the shared nodes of bus field f.
func (g *generator) line(f string) *busLine {
	l := g.lines[f]
	if l == nil {
		l = &busLine{ref: spec.FieldOf(g.sig, f)}
		g.lines[f] = l
	}
	return l
}

// busField returns the shared expression B.<field>, as an lvalue or an
// rvalue.
func (g *generator) busField(f string) spec.Expr { return g.line(f).ref }

// is returns the shared condition B.<f> = '<v>' (v is 0 or 1).
func (g *generator) is(f string, v int) *spec.Binary {
	l := g.line(f)
	if l.is[v] == nil {
		l.is[v] = spec.Eq(l.ref, g.bit[v])
	}
	return l.is[v]
}

// set returns the shared statement B.<f> <= '<v>'.
func (g *generator) set(f string, v int) *spec.Assign {
	l := g.line(f)
	if l.set[v] == nil {
		l.set[v] = spec.AssignSig(l.ref, g.bit[v])
	}
	return l.set[v]
}

// until returns the shared statement wait until B.<f> = '<v>'.
func (g *generator) until(f string, v int) *spec.Wait {
	l := g.line(f)
	if l.until[v] == nil {
		l.until[v] = spec.WaitUntil(g.is(f, v))
	}
	return l.until[v]
}

// delay returns the shared statement wait for n.
func (g *generator) delay(n int64) *spec.Wait {
	w := g.delays[n]
	if w == nil {
		w = spec.WaitFor(n)
		g.delays[n] = w
	}
	return w
}

// int returns the shared integer literal v: slice bounds, indices,
// counters and the retry budget. The table is a map because v can be
// as large as a request's max_retries.
func (g *generator) int(v int) *spec.IntLit {
	n := g.ints[v]
	if n == nil {
		n = spec.Int(int64(v))
		g.ints[v] = n
	}
	return n
}

// slice returns x(hi downto lo) with shared bounds.
func (g *generator) slice(x spec.Expr, hi, lo int) *spec.SliceExpr {
	return &spec.SliceExpr{X: x, Hi: g.int(hi), Lo: g.int(lo), Width: hi - lo + 1}
}

// dataLow returns the shared expression B.DATA(w-1 downto 0), the low w
// bits of a received bus word.
func (g *generator) dataLow(w int) *spec.SliceExpr {
	s := g.low[w]
	if s == nil {
		s = g.slice(g.busField("DATA"), w-1, 0)
		g.low[w] = s
	}
	return s
}

// latchWord returns the statement storing one received word at span
// of buf: buf(hi downto lo) := B.DATA(w-1 downto 0).
func (g *generator) latchWord(buf spec.Expr, span [2]int) *spec.Assign {
	return spec.AssignVar(g.slice(buf, span[0], span[1]), g.dataLow(span[0]-span[1]+1))
}
