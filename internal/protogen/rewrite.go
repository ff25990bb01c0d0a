package protogen

import (
	"fmt"

	"repro/internal/spec"
)

// rewriteAccessors performs step 4 (update variable references): in every
// behavior that accesses a remote variable over one of the bus's
// channels, direct accesses are replaced by calls to the generated send
// and receive procedures.
//
//   - A write "X <= e" or "MEM(i) := e" becomes "SendCHw(e)" /
//     "SendCHw(i, e)".
//   - A read occurrence of X or MEM(i) nested in any expression is
//     hoisted: a fresh temporary is received into just before the
//     statement, and the occurrence is replaced by the temporary — the
//     paper's "ReceiveCH1(Xtemp); SendCH2(AD, Xtemp + 7)".
//
// Conditions of if statements are hoisted before the statement; while
// conditions are additionally re-received at the end of the loop body so
// the re-evaluation sees fresh data. For-loop bounds are hoisted once,
// matching VHDL's evaluate-once loop-range semantics.
//
// A remote access the paper's channels cannot carry (a whole-array read,
// a write through a slice or field) is returned as an error.
func (g *generator) rewriteAccessors() error {
	type key struct {
		beh *spec.Behavior
		v   *spec.Variable
		dir spec.Direction
	}
	chans := make(map[key]*spec.Channel)
	accessors := make(map[*spec.Behavior]bool)
	for _, c := range g.bus.Channels {
		chans[key{c.Accessor, c.Var, c.Dir}] = c
		accessors[c.Accessor] = true
	}
	for _, b := range g.sys.Behaviors() {
		if !accessors[b] {
			continue
		}
		rw := &rewriter{
			g:   g,
			beh: b,
			read: func(v *spec.Variable) *spec.Channel {
				return chans[key{b, v, spec.Read}]
			},
			write: func(v *spec.Variable) *spec.Channel {
				return chans[key{b, v, spec.Write}]
			},
		}
		b.Body = rw.rewriteBody(b.Body)
		for _, p := range b.Procedures {
			if p.Channel == nil { // skip the generated transfer procedures
				p.Body = rw.rewriteBody(p.Body)
			}
		}
		if rw.err != nil {
			return rw.err
		}
	}
	return nil
}

// rewriter rewrites one accessor behavior.
type rewriter struct {
	g           *generator
	beh         *spec.Behavior
	read, write func(*spec.Variable) *spec.Channel
	tempCount   map[*spec.Variable]int
	err         error // the first unsupported access, see fail
}

// fail records the first access the rewrite cannot express; the walk
// goes on with the statement unchanged, and rewriteAccessors returns
// the error when the behavior is done.
func (rw *rewriter) fail(format string, args ...any) {
	if rw.err == nil {
		rw.err = fmt.Errorf("protogen: "+format, args...)
	}
}

func (rw *rewriter) rewriteBody(body []spec.Stmt) []spec.Stmt {
	return spec.RewriteStmts(body, rw.rewriteStmt)
}

func (rw *rewriter) rewriteStmt(s spec.Stmt) []spec.Stmt {
	switch s := s.(type) {
	case *spec.Assign:
		return rw.rewriteAssign(s)
	case *spec.If:
		// Hoist remote reads from all arm conditions before the if.
		var prelude []spec.Stmt
		cond, pre := rw.rewriteExpr(s.Cond)
		prelude = append(prelude, pre...)
		cp := &spec.If{Cond: cond, Then: s.Then, Else: s.Else}
		for _, arm := range s.Elifs {
			ac, apre := rw.rewriteExpr(arm.Cond)
			prelude = append(prelude, apre...)
			cp.Elifs = append(cp.Elifs, spec.ElseIf{Cond: ac, Body: arm.Body})
		}
		rw.g.noteRewritten(len(prelude))
		return append(prelude, cp)
	case *spec.While:
		cond, pre := rw.rewriteExpr(s.Cond)
		if len(pre) == 0 {
			return spec.Keep(s)
		}
		// Re-receive at the end of each iteration so the condition's
		// re-evaluation sees fresh remote data.
		body := append(append([]spec.Stmt{}, s.Body...), pre...)
		rw.g.noteRewritten(len(pre))
		return append(append([]spec.Stmt{}, pre...), &spec.While{Cond: cond, Body: body})
	case *spec.For:
		from, pre1 := rw.rewriteExpr(s.From)
		to, pre2 := rw.rewriteExpr(s.To)
		if len(pre1)+len(pre2) == 0 {
			return spec.Keep(s)
		}
		rw.g.noteRewritten(len(pre1) + len(pre2))
		prelude := append(pre1, pre2...)
		return append(prelude, &spec.For{Var: s.Var, From: from, To: to, Body: s.Body})
	case *spec.Call:
		return rw.rewriteCall(s)
	case *spec.Wait:
		if s.Until == nil {
			return spec.Keep(s)
		}
		cond, pre := rw.rewriteExpr(s.Until)
		if len(pre) == 0 {
			return spec.Keep(s)
		}
		rw.g.noteRewritten(len(pre))
		return append(pre, &spec.Wait{On: s.On, Until: cond, For: s.For, HasFor: s.HasFor})
	}
	return spec.Keep(s)
}

// rewriteAssign handles both sides of an assignment. The RHS and any
// index expressions of the LHS may contain remote reads; the LHS base may
// itself be a remote write target.
func (rw *rewriter) rewriteAssign(s *spec.Assign) []spec.Stmt {
	rhs, prelude := rw.rewriteExpr(s.RHS)

	base := spec.BaseVar(s.LHS)
	wc := rw.write(base)
	if wc == nil {
		// Local target; still rewrite remote reads inside LHS indices.
		lhs, pre := rw.rewriteLValueIndices(s.LHS)
		prelude = append(prelude, pre...)
		if len(prelude) == 0 {
			return spec.Keep(s)
		}
		rw.g.noteRewritten(len(prelude))
		return append(prelude, &spec.Assign{Kind: s.Kind, LHS: lhs, RHS: rhs})
	}

	// Remote write: replace the assignment with a SendCH call.
	send := rw.g.ref.AccessorProcs[wc]
	var args []spec.Expr
	switch lhs := s.LHS.(type) {
	case *spec.VarRef:
		// X <= e  ->  SendCHw(e)
	case *spec.Index:
		idx, pre := rw.rewriteExpr(lhs.Index)
		prelude = append(prelude, pre...)
		args = append(args, rw.addrArg(idx, wc.AddrBits()))
	default:
		rw.fail("unsupported remote write target %s in behavior %s "+
			"(only whole-variable and indexed writes are supported)", s.LHS, rw.beh.Name)
		return spec.Keep(s)
	}
	args = append(args, rw.g.coerceToMsg(rhs, wc.DataBits()))
	rw.g.noteRewritten(1)
	return append(prelude, spec.CallProc(send, args...))
}

// rewriteLValueIndices rewrites remote reads inside the index/slice
// positions of a local lvalue, returning the new lvalue and the hoisted
// receive calls.
func (rw *rewriter) rewriteLValueIndices(lhs spec.Expr) (spec.Expr, []spec.Stmt) {
	switch lhs := lhs.(type) {
	case *spec.Index:
		arr, pre1 := rw.rewriteLValueIndices(lhs.Arr)
		idx, pre2 := rw.rewriteExpr(lhs.Index)
		return spec.At(arr, idx), append(pre1, pre2...)
	case *spec.SliceExpr:
		x, pre := rw.rewriteLValueIndices(lhs.X)
		return &spec.SliceExpr{X: x, Hi: lhs.Hi, Lo: lhs.Lo, Width: lhs.Width}, pre
	case *spec.FieldRef:
		x, pre := rw.rewriteLValueIndices(lhs.X)
		return spec.FieldOf(x, lhs.Field), pre
	}
	return lhs, nil
}

// rewriteCall hoists remote reads out of in-mode arguments and routes
// remote out-mode arguments through temporaries followed by a send.
func (rw *rewriter) rewriteCall(s *spec.Call) []spec.Stmt {
	var prelude, postlude []spec.Stmt
	args := make([]spec.Expr, len(s.Args))
	changed := false
	for i, a := range s.Args {
		mode := spec.ModeIn
		if s.Proc != nil && i < len(s.Proc.Params) {
			mode = s.Proc.Params[i].Mode
		}
		if mode == spec.ModeIn {
			na, pre := rw.rewriteExpr(a)
			args[i] = na
			prelude = append(prelude, pre...)
			changed = changed || len(pre) > 0
			continue
		}
		// out/inout: if the target is remote, pass a temporary and
		// forward it afterwards (and pre-fetch for inout).
		base := spec.BaseVar(a)
		wc := rw.write(base)
		if wc == nil {
			args[i] = a
			continue
		}
		tmp := rw.newTemp(base, wc.DataBits())
		if mode == spec.ModeInOut {
			if rc := rw.read(base); rc != nil {
				prelude = append(prelude, rw.receiveInto(rc, a, tmp)...)
			}
		}
		args[i] = spec.Ref(tmp)
		postlude = append(postlude, rw.sendFrom(wc, a, tmp)...)
		changed = true
	}
	if !changed {
		return spec.Keep(s)
	}
	rw.g.noteRewritten(1)
	out := append(prelude, spec.CallProc(s.Proc, args...))
	return append(out, postlude...)
}

// rewriteExpr returns a copy of e in which every remote read has been
// replaced by a temporary, plus the receive calls that fill those
// temporaries (in evaluation order).
func (rw *rewriter) rewriteExpr(e spec.Expr) (spec.Expr, []spec.Stmt) {
	if e == nil {
		return nil, nil
	}
	switch e := e.(type) {
	case *spec.VarRef:
		rc := rw.read(e.Var)
		if rc == nil {
			return e, nil
		}
		if rc.AddrBits() > 0 {
			// Whole-array read without an index: not a channel
			// transfer the paper defines; fetching element-wise is a
			// memory-copy transaction left to the caller.
			rw.fail("whole-array read of remote %s in behavior %s "+
				"(read remote arrays element-wise)", e.Var.Name, rw.beh.Name)
			return e, nil
		}
		tmp := rw.newTemp(e.Var, rc.DataBits())
		pre := []spec.Stmt{spec.CallProc(rw.g.ref.AccessorProcs[rc], spec.Ref(tmp))}
		return rw.castBack(spec.Ref(tmp), e.Var.Type), pre
	case *spec.Index:
		base := spec.BaseVar(e.Arr)
		rc := rw.read(base)
		idx, pre := rw.rewriteExpr(e.Index)
		if rc == nil || spec.BaseVar(e.Arr) != base || !isDirectRef(e.Arr) {
			arr, preArr := rw.rewriteExpr(e.Arr)
			return spec.At(arr, idx), append(preArr, pre...)
		}
		var elem spec.Type = spec.BitVector(rc.DataBits())
		if at, ok := spec.IsArray(base.Type); ok {
			elem = at.Elem
		}
		tmp := rw.newTemp(base, rc.DataBits())
		pre = append(pre, spec.CallProc(rw.g.ref.AccessorProcs[rc],
			rw.addrArg(idx, rc.AddrBits()), spec.Ref(tmp)))
		return rw.castBack(spec.Ref(tmp), elem), pre
	case *spec.Binary:
		x, p1 := rw.rewriteExpr(e.X)
		y, p2 := rw.rewriteExpr(e.Y)
		if len(p1)+len(p2) == 0 {
			return e, nil
		}
		return spec.Bin(e.Op, x, y), append(p1, p2...)
	case *spec.Unary:
		x, p := rw.rewriteExpr(e.X)
		if len(p) == 0 {
			return e, nil
		}
		return &spec.Unary{Op: e.Op, X: x}, p
	case *spec.Conv:
		x, p := rw.rewriteExpr(e.X)
		if len(p) == 0 {
			return e, nil
		}
		return &spec.Conv{X: x, To: e.To}, p
	case *spec.SliceExpr:
		x, p := rw.rewriteExpr(e.X)
		if len(p) == 0 {
			return e, nil
		}
		return &spec.SliceExpr{X: x, Hi: e.Hi, Lo: e.Lo, Width: e.Width}, p
	case *spec.FieldRef:
		x, p := rw.rewriteExpr(e.X)
		if len(p) == 0 {
			return e, nil
		}
		return spec.FieldOf(x, e.Field), p
	}
	return e, nil
}

func isDirectRef(e spec.Expr) bool {
	_, ok := e.(*spec.VarRef)
	return ok
}

// castBack adapts the received bit-vector temporary to the type the
// original occurrence had.
func (rw *rewriter) castBack(tmp spec.Expr, orig spec.Type) spec.Expr {
	switch orig.(type) {
	case spec.IntegerType:
		return spec.ToIntSigned(tmp)
	}
	return tmp
}

// addrArg adapts an index expression to the channel's address parameter.
func (rw *rewriter) addrArg(idx spec.Expr, addrBits int) spec.Expr {
	switch idx.Type().(type) {
	case spec.BitVectorType:
		if idx.Type().BitWidth() == addrBits {
			return idx
		}
		return &spec.Conv{X: idx, To: spec.BitVector(addrBits)}
	}
	return spec.ToVec(idx, addrBits)
}

// newTemp declares a fresh temporary in the accessor behavior, named
// after the remote variable in the paper's style: Xtemp, Xtemp2, ...
func (rw *rewriter) newTemp(v *spec.Variable, dataBits int) *spec.Variable {
	if rw.tempCount == nil {
		rw.tempCount = make(map[*spec.Variable]int)
	}
	rw.tempCount[v]++
	name := v.Name + "temp"
	if n := rw.tempCount[v]; n > 1 {
		name = fmt.Sprintf("%s%d", name, n)
	}
	tmp := rw.beh.AddVar(name, spec.BitVector(dataBits))
	rw.g.ref.Temps = append(rw.g.ref.Temps, tmp)
	return tmp
}

// receiveInto emits a receive of the remote value behind lvalue a into
// tmp (used for inout arguments).
func (rw *rewriter) receiveInto(rc *spec.Channel, a spec.Expr, tmp *spec.Variable) []spec.Stmt {
	recv := rw.g.ref.AccessorProcs[rc]
	if idx, ok := a.(*spec.Index); ok && rc.AddrBits() > 0 {
		i, pre := rw.rewriteExpr(idx.Index)
		return append(pre, spec.CallProc(recv, rw.addrArg(i, rc.AddrBits()), spec.Ref(tmp)))
	}
	return []spec.Stmt{spec.CallProc(recv, spec.Ref(tmp))}
}

// sendFrom emits a send of tmp to the remote target behind lvalue a.
func (rw *rewriter) sendFrom(wc *spec.Channel, a spec.Expr, tmp *spec.Variable) []spec.Stmt {
	send := rw.g.ref.AccessorProcs[wc]
	if idx, ok := a.(*spec.Index); ok && wc.AddrBits() > 0 {
		i, pre := rw.rewriteExpr(idx.Index)
		return append(pre, spec.CallProc(send, rw.addrArg(i, wc.AddrBits()), spec.Ref(tmp)))
	}
	return []spec.Stmt{spec.CallProc(send, spec.Ref(tmp))}
}

func (g *generator) noteRewritten(n int) { g.ref.RewrittenStmts += n }
