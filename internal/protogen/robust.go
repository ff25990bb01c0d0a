// Robust (fault-tolerant) wire sequences for protocol generation.
//
// The paper's Fig. 4 protocol assumes ideal wires: every strobe
// transition arrives, so every "wait until" eventually fires. Under wire
// faults (a dropped DONE, a stuck START, a flipped DATA bit) those waits
// hang and the refined system deadlocks. Config.Robust replaces the
// generated sequences with hardened variants built here:
//
//   - every handshake wait becomes a bounded wait ("wait until cond for
//     T"), so a lost strobe surfaces as a timeout instead of a hang;
//   - full-handshake accessors wrap the whole transaction in a retry
//     loop: on a timeout (or a parity NACK) the accessor pulses a
//     dedicated RST line — resynchronizing the server back to its
//     dispatch loop — and retransmits from the first word, up to
//     MaxRetries times; exhausted budgets increment a per-module abort
//     counter (<bus>_ABORTS) and give up cleanly;
//   - variable processes get a watchdog: any expired wait (or an
//     observed RST pulse) returns the serve procedure to the dispatch
//     loop, which first clears the server-driven lines (DONE, NACK), so
//     a half-finished transaction never wedges the server or the bus;
//   - with Config.Parity, the sender additionally drives PAR (even
//     parity over the DATA word and the ID lines) and the receiver
//     answers a mismatch on NACK instead of acknowledging, folding
//     corruption detection into the same retransmission path.
//
// Retries restart the *transaction*, not the word: after a lost strobe
// the two sides cannot agree on which word failed, but a transaction
// retried from word zero against a freshly resynchronized server is
// idempotent (writes re-commit the same message, reads re-read).
//
// The half handshake has no acknowledgement wire, so the accessor never
// blocks and cannot detect loss; Robust there reduces to the server
// watchdog (hardenServeProc), which bounds every serve-side wait.
package protogen

import "repro/internal/spec"

// robustRetry reports whether the full retransmission machinery (RST
// line, retry loops, abort counters) is generated. It needs a
// sender-visible acknowledgement, i.e. the full handshake.
func (g *generator) robustRetry() bool {
	return g.cfg.Robust && g.cfg.Protocol == spec.FullHandshake
}

// timeout returns the bounded-wait deadline in clocks.
func (g *generator) timeout() int64 {
	if g.cfg.TimeoutClocks > 0 {
		return g.cfg.TimeoutClocks
	}
	return DefaultTimeoutClocks
}

// retries returns the retransmission budget per transaction.
func (g *generator) retries() int {
	if g.cfg.MaxRetries > 0 {
		return g.cfg.MaxRetries
	}
	return DefaultMaxRetries
}

// abortVarFor returns (creating on first use) the module-level counter
// of cleanly aborted transactions for accessors on module m.
func (g *generator) abortVarFor(m *spec.Module) *spec.Variable {
	if v, ok := g.abortVars[m]; ok {
		return v
	}
	name := g.bus.Signal.Name + "_ABORTS"
	if g.sys.FindVariable(name) != nil {
		name += "_" + m.Name
	}
	v := spec.NewVar(name, spec.Integer)
	m.AddVariable(v)
	g.abortVars[m] = v
	g.ref.AbortCounters = append(g.ref.AbortCounters, v)
	return v
}

// parityExpr XOR-reduces the low width bits of a vector expression to a
// single parity bit (a 1-wide vector, comparable against B.PAR).
func (g *generator) parityExpr(x spec.Expr, width int) spec.Expr {
	terms := make([]spec.Expr, width)
	for i := range terms {
		terms[i] = g.slice(x, i, i)
	}
	// Balanced XOR tree, log2(width) levels deep like the hardware; each
	// level is written over the front of the one below it.
	for n := width; n > 1; {
		k := 0
		for i := 0; i+1 < n; i += 2 {
			terms[k] = spec.Bin(spec.OpXor, terms[i], terms[i+1])
			k++
		}
		if n%2 == 1 {
			terms[k] = terms[n-1]
			k++
		}
		n = k
	}
	return terms[0]
}

// driveParity returns the PAR value the sender computes from the values
// it intends to put on the wires: the (padded) word and the channel's ID
// constant. Using the intended — not observed — values means a fault on
// any covered line shows up at the receiver as a mismatch.
func (g *generator) driveParity(word spec.Expr, c *spec.Channel) spec.Expr {
	x := g.padToBus(word)
	w := g.bus.Width
	if c.IDBits > 0 {
		x = spec.Bin(spec.OpConcat, x, spec.Vec(c.ID))
		w += c.IDBits
	}
	return g.parityExpr(x, w)
}

// serverDriveParity is the server-side counterpart for the data phase of
// a read: the server drives the word but the ID lines stay under the
// accessor, so it reads them off the bus.
func (g *generator) serverDriveParity(word spec.Expr) spec.Expr {
	x := g.padToBus(word)
	w := g.bus.Width
	if idb := g.bus.IDBits(); idb > 0 {
		x = spec.Bin(spec.OpConcat, x, g.busField("ID"))
		w += idb
	}
	return g.parityExpr(x, w)
}

// parityMismatch returns the receiver's check, built once: parity
// recomputed from the observed DATA and ID lines differs from the
// observed PAR.
func (g *generator) parityMismatch() spec.Expr {
	if g.mismatch == nil {
		x := g.busField("DATA")
		w := g.bus.Width
		if idb := g.bus.IDBits(); idb > 0 {
			x = spec.Bin(spec.OpConcat, x, g.busField("ID"))
			w += idb
		}
		g.mismatch = spec.Neq(g.parityExpr(x, w), g.busField("PAR"))
	}
	return g.mismatch
}

// hardenServeProc bounds every handshake wait of a serve procedure and
// returns to the dispatch loop when one expires — the watchdog, for
// protocols whose serve sequences are otherwise kept (half handshake).
func (g *generator) hardenServeProc(p *spec.Procedure) {
	tmo := spec.NewVar("tmo", spec.Bool)
	bail := &spec.If{Cond: spec.Ref(tmo), Then: []spec.Stmt{g.ret}}
	used := false
	p.Body = spec.RewriteStmts(p.Body, func(s spec.Stmt) []spec.Stmt {
		w, ok := s.(*spec.Wait)
		if !ok || w.Until == nil || w.HasFor {
			return spec.Keep(s)
		}
		used = true
		return []spec.Stmt{spec.WaitUntilFor(w.Until, g.timeout(), tmo), bail}
	})
	if used {
		p.Locals = append(p.Locals, tmo)
	}
}

// abortWatch is the server-side bail-out condition after a bounded wait:
// the wait expired, or the accessor is pulsing RST (or, with
// EpochResync, EPOCH) to resynchronize.
func (g *generator) abortWatch(tmo *spec.Variable) spec.Expr {
	return g.orRST(spec.Ref(tmo))
}

// orRST widens a server wait condition to also wake on the RST pulse —
// and, with EpochResync, on the EPOCH pulse mirroring it, so the resync
// survives the loss of either edge.
func (g *generator) orRST(cond spec.Expr) spec.Expr {
	cond = spec.LogicalOr(cond, g.is("RST", 1))
	if g.cfg.EpochResync {
		cond = spec.LogicalOr(cond, g.is("EPOCH", 1))
	}
	return cond
}

// resyncStmts appends the accessor's RST pulse opening a
// retransmission: long enough (two clocks high) that every bounded
// server wait observes it, followed by one clock of recovery. With
// EpochResync the EPOCH line pulses in lockstep, so dropping one of the
// two rise events still resynchronizes every server.
func (g *generator) resyncStmts(body []spec.Stmt) []spec.Stmt {
	body = append(body, g.set("RST", 1))
	if g.cfg.EpochResync {
		body = append(body, g.set("EPOCH", 1))
	}
	body = append(body, g.delay(2), g.set("RST", 0))
	if g.cfg.EpochResync {
		body = append(body, g.set("EPOCH", 0))
	}
	return append(body, g.delay(1))
}

// startHigh is a server's accept condition for an accessor-driven word
// of channel c carrying SEQ parity seq: B.START = '1' [and B.ID = id]
// [and B.SEQ = seq]. The SEQ term, present only with AckSeq, keeps a
// stale strobe left over from the previous word, which carries the
// wrong parity, from being served again.
func (g *generator) startHigh(c *spec.Channel, seq int) spec.Expr {
	cond := andOpt(g.is("START", 1), g.idMatches(c))
	if g.cfg.AckSeq {
		cond = spec.LogicalAnd(cond, g.is("SEQ", seq))
	}
	return cond
}

// retryLoop wraps the per-word transfer groups of one transaction in the
// bounded retransmission loop:
//
//	ok := false; attempt := 0;
//	while not ok and attempt <= MaxRetries loop
//	  if attempt > 0 then <RST pulse>; end if;
//	  ok := true;
//	  B.ID <= <id>;                      -- re-driven: heals flipped IDs
//	  if ok then <word 0>; end if;       -- each word clears ok on failure
//	  ...
//	  attempt := attempt + 1;
//	end loop;
func (g *generator) retryLoop(c *spec.Channel, ok, attempt *spec.Variable, words [][]spec.Stmt) []spec.Stmt {
	okRef, attemptRef := spec.Ref(ok), spec.Ref(attempt)
	inner := make([]spec.Stmt, 0, 4+len(words))
	inner = append(inner,
		&spec.If{Cond: spec.Gt(attemptRef, g.int(0)), Then: g.resyncStmts(nil)},
		spec.AssignVar(okRef, g.boolLit[1]),
	)
	inner = g.setID(inner, c)
	for _, w := range words {
		inner = append(inner, &spec.If{Cond: okRef, Then: w})
	}
	inner = append(inner, spec.AssignVar(attemptRef, spec.Add(attemptRef, g.int(1))))
	return []spec.Stmt{
		spec.AssignVar(okRef, g.boolLit[0]),
		spec.AssignVar(attemptRef, g.int(0)),
		&spec.While{
			Cond: spec.LogicalAnd(spec.Not(okRef), spec.Le(attemptRef, g.int(g.retries()))),
			Body: inner,
		},
	}
}

// abortStmt counts an exhausted retry budget. Deliberately not a
// Return: the arbitration release (wrapArbitration) must still run so an
// aborting accessor does not hold the bus grant forever.
func (g *generator) abortStmt(c *spec.Channel, ok *spec.Variable) spec.Stmt {
	ab := spec.Ref(g.abortVarFor(c.Accessor.Owner))
	return &spec.If{
		Cond: spec.Not(spec.Ref(ok)),
		Then: []spec.Stmt{spec.AssignVar(ab, spec.Add(ab, g.int(1)))},
	}
}

// robustSendWordStmts appends one hardened accessor-driven word:
//
//	B.DATA <= <word>; [B.PAR <= parity;] [B.SEQ <= idx mod 2;]
//	B.START <= '1';
//	wait until B.DONE = '1' [or B.NACK = '1'] for T -> tmo;
//	if tmo [or B.NACK = '1'] then
//	  ok := false; B.START <= '0'; wait for 1;
//	else
//	  B.START <= '0';
//	  wait until B.DONE = '0' for T -> tmo;
//	  if tmo then ok := false; wait for 1; end if;
//	end if;
//
// Everything from the START rise on depends only on the procedure's ok
// and tmo, so the procedure builds it once (robustSendTail) and every
// word shares it.
func (g *generator) robustSendWordStmts(body []spec.Stmt, c *spec.Channel, idx int, word spec.Expr, tail []spec.Stmt) []spec.Stmt {
	body = append(body, spec.AssignSig(g.busField("DATA"), g.padToBus(word)))
	if g.cfg.Parity {
		body = append(body, spec.AssignSig(g.busField("PAR"), g.driveParity(word, c)))
	}
	if g.cfg.AckSeq {
		// SEQ lands in the same delta batch as the START rise, so the
		// server observes both together.
		body = append(body, g.set("SEQ", idx%2))
	}
	return append(body, tail...)
}

// robustSendTail builds the word-invariant part of robustSendWordStmts
// for one procedure's ok and tmo.
func (g *generator) robustSendTail(ok, tmo *spec.Variable) []spec.Stmt {
	waitCond := spec.Expr(g.is("DONE", 1))
	failCond := spec.Expr(spec.Ref(tmo))
	if g.cfg.Parity {
		nack := g.is("NACK", 1)
		waitCond = spec.LogicalOr(waitCond, nack)
		failCond = spec.LogicalOr(failCond, nack)
	}
	fail := spec.AssignVar(spec.Ref(ok), g.boolLit[0])
	return []spec.Stmt{
		g.set("START", 1),
		spec.WaitUntilFor(waitCond, g.timeout(), tmo),
		&spec.If{
			Cond: failCond,
			Then: []spec.Stmt{fail, g.set("START", 0), g.delay(1)},
			Else: []spec.Stmt{
				g.set("START", 0),
				spec.WaitUntilFor(g.is("DONE", 0), g.timeout(), tmo),
				&spec.If{Cond: spec.Ref(tmo), Then: []spec.Stmt{fail, g.delay(1)}},
			},
		},
	}
}

// serveKit holds the word-invariant statements of one hardened serve
// procedure: the opening of a word for each SEQ parity, and its close.
type serveKit struct {
	head [2][]spec.Stmt
	tail []spec.Stmt
}

// robustServeKit builds the serveKit of channel c's serve procedure,
// whose bounded waits record into tmo:
//
//	wait until (B.START = '1' [and B.ID = id] [and B.SEQ = seq])
//	  or B.RST = '1' for T -> tmo;
//	if tmo or B.RST = '1' then return; end if;
//	wait for 1;
//	[if <parity mismatch> then
//	   B.NACK <= '1'; wait until B.START = '0' or B.RST = '1' for T;
//	   B.NACK <= '0'; wait for 1; return;
//	 end if;]
//	  ... latch ...
//	B.DONE <= '1';
//	wait until B.START = '0' or B.RST = '1' for T -> tmo;
//	B.DONE <= '0';
//	wait for 1;
//	if tmo or B.RST = '1' then return; end if;
func (g *generator) robustServeKit(c *spec.Channel, tmo *spec.Variable) *serveKit {
	bail := &spec.If{Cond: g.abortWatch(tmo), Then: []spec.Stmt{g.ret}}
	head := func(seq int) []spec.Stmt {
		stmts := []spec.Stmt{
			spec.WaitUntilFor(g.orRST(g.startHigh(c, seq)), g.timeout(), tmo),
			bail,
			g.delay(1),
		}
		if !g.cfg.Parity {
			return stmts
		}
		return append(stmts, &spec.If{
			Cond: g.parityMismatch(),
			Then: []spec.Stmt{
				g.set("NACK", 1),
				spec.WaitUntilFor(g.orRST(g.is("START", 0)), g.timeout(), nil),
				g.set("NACK", 0),
				g.delay(1),
				g.ret,
			},
		})
	}
	k := &serveKit{tail: []spec.Stmt{
		g.set("DONE", 1),
		spec.WaitUntilFor(g.orRST(g.is("START", 0)), g.timeout(), tmo),
		g.set("DONE", 0),
		g.delay(1),
		bail,
	}}
	k.head[0] = head(0)
	k.head[1] = k.head[0]
	if g.cfg.AckSeq {
		k.head[1] = head(1)
	}
	return k
}

// robustServeWordStmts appends the hardened server side of one
// accessor-driven word: the baseline sequence with every wait bounded,
// watching RST, and bailing to the dispatch loop on any anomaly. With
// parity, a corrupted word is answered on NACK instead of DONE.
func (g *generator) robustServeWordStmts(body []spec.Stmt, k *serveKit, idx int, latch ...spec.Stmt) []spec.Stmt {
	body = append(body, k.head[idx%2]...)
	body = append(body, latch...)
	return append(body, k.tail...)
}

// robustServerSendWordStmts appends one hardened server-driven word
// (the data phase of a read): roles swapped, same guards. Everything
// after the DATA and PAR assignments depends only on the procedure's
// tmo, so the procedure builds it once (robustServerSendTail) and every
// word shares it.
func (g *generator) robustServerSendWordStmts(body []spec.Stmt, word spec.Expr, tail []spec.Stmt) []spec.Stmt {
	body = append(body, spec.AssignSig(g.busField("DATA"), g.padToBus(word)))
	if g.cfg.Parity {
		body = append(body, spec.AssignSig(g.busField("PAR"), g.serverDriveParity(word)))
	}
	return append(body, tail...)
}

// robustServerSendTail builds the word-invariant part of
// robustServerSendWordStmts for one procedure's tmo.
func (g *generator) robustServerSendTail(tmo *spec.Variable) []spec.Stmt {
	ackCond := spec.Expr(g.is("START", 1))
	if g.cfg.Parity {
		ackCond = spec.LogicalOr(ackCond, g.is("NACK", 1))
	}
	tail := []spec.Stmt{
		g.delay(1),
		g.set("DONE", 1),
		spec.WaitUntilFor(g.orRST(ackCond), g.timeout(), tmo),
		g.set("DONE", 0),
		&spec.If{Cond: g.abortWatch(tmo), Then: []spec.Stmt{g.delay(1), g.ret}},
	}
	if g.cfg.Parity {
		tail = append(tail, &spec.If{
			Cond: g.is("NACK", 1),
			Then: []spec.Stmt{
				spec.WaitUntilFor(g.orRST(g.is("NACK", 0)), g.timeout(), nil),
				g.delay(1),
				g.ret,
			},
		})
	}
	return append(tail,
		g.delay(1),
		spec.WaitUntilFor(g.orRST(g.is("START", 0)), g.timeout(), tmo),
		&spec.If{Cond: g.abortWatch(tmo), Then: []spec.Stmt{g.ret}},
	)
}

// recvKit holds the word-invariant statements of one hardened receive
// procedure.
type recvKit struct {
	wait   spec.Stmt   // wait until B.DONE = '1' for T -> tmo
	tmo    spec.Expr   // tmo
	fail   []spec.Stmt // ok := false
	nack   []spec.Stmt // the NACK answer to a corrupted word (parity only)
	accept []spec.Stmt // the acknowledgement after a word's latch
}

// robustRecvKit builds the recvKit of a receive procedure with ok and
// tmo.
func (g *generator) robustRecvKit(ok, tmo *spec.Variable) *recvKit {
	tmoRef := spec.Ref(tmo)
	fail := spec.AssignVar(spec.Ref(ok), g.boolLit[0])
	k := &recvKit{
		wait: spec.WaitUntilFor(g.is("DONE", 1), g.timeout(), tmo),
		tmo:  tmoRef,
		fail: []spec.Stmt{fail},
		accept: []spec.Stmt{
			g.set("START", 1),
			spec.WaitUntilFor(g.is("DONE", 0), g.timeout(), tmo),
			g.set("START", 0),
			g.delay(1),
			&spec.If{Cond: tmoRef, Then: []spec.Stmt{fail}},
		},
	}
	if g.cfg.Parity {
		k.nack = []spec.Stmt{
			g.set("NACK", 1),
			spec.WaitUntilFor(g.is("DONE", 0), g.timeout(), tmo),
			g.set("NACK", 0),
			g.delay(1),
			fail,
		}
	}
	return k
}

// robustRecvWordStmts appends the hardened accessor side of one
// server-driven word. With parity, a corrupted word is rejected on
// NACK, failing the transaction into the retry loop.
func (g *generator) robustRecvWordStmts(body []spec.Stmt, k *recvKit, latch spec.Stmt) []spec.Stmt {
	accept := make([]spec.Stmt, 0, 1+len(k.accept))
	accept = append(append(accept, latch), k.accept...)
	consume := accept
	if g.cfg.Parity {
		consume = []spec.Stmt{&spec.If{Cond: g.parityMismatch(), Then: k.nack, Else: accept}}
	}
	return append(body, k.wait, &spec.If{Cond: k.tmo, Then: k.fail, Else: consume})
}

// robustLocals declares a hardened accessor procedure's retry state:
// ok, attempt and tmo.
func robustLocals(p *spec.Procedure) (ok, attempt, tmo *spec.Variable) {
	ok = spec.NewVar("ok", spec.Bool)
	attempt = spec.NewVar("attempt", spec.Integer)
	tmo = spec.NewVar("tmo", spec.Bool)
	p.Locals = append(p.Locals, ok, attempt, tmo)
	return ok, attempt, tmo
}

// closeRobust appends a hardened accessor transaction's abort count and
// turnaround to body and wraps it in the arbitration pair.
func (g *generator) closeRobust(c *spec.Channel, ok *spec.Variable, body []spec.Stmt) []spec.Stmt {
	body = append(body, g.abortStmt(c, ok))
	return g.wrapArbitration(c.Accessor, g.turnaround(body))
}

// buildRobustSendProc is the hardened buildSendProc: same parameters and
// message layout, with the word transfers wrapped in the retry loop.
func (g *generator) buildRobustSendProc(c *spec.Channel) *spec.Procedure {
	p := &spec.Procedure{Name: "Send" + c.Name}
	addr, txdata := accessorParams(p, c)
	msg, assemble := message(p, addr, txdata)
	ok, attempt, tmo := robustLocals(p)

	msgRef := spec.Ref(msg)
	tail := g.robustSendTail(ok, tmo)
	spans := wordSpans(msg.Type.BitWidth(), g.bus.Width)
	words := make([][]spec.Stmt, len(spans))
	for i, span := range spans {
		words[i] = g.robustSendWordStmts(nil, c, i, g.slice(msgRef, span[0], span[1]), tail)
	}
	body := append([]spec.Stmt{assemble}, g.retryLoop(c, ok, attempt, words)...)
	p.Body = g.closeRobust(c, ok, body)
	return p
}

// buildRobustReceiveProc is the hardened buildReceiveProc: the request
// phase and the data phase together form one retried transaction, so a
// fault anywhere re-requests from scratch (re-reading is idempotent).
func (g *generator) buildRobustReceiveProc(c *spec.Channel) *spec.Procedure {
	p := &spec.Procedure{Name: "Receive" + c.Name}
	addr, rxdata := accessorParams(p, c)
	ok, attempt, tmo := robustLocals(p)

	tail := g.robustSendTail(ok, tmo)
	var words [][]spec.Stmt
	if addr != nil {
		addrRef := spec.Ref(addr)
		for i, span := range wordSpans(c.AddrBits(), g.bus.Width) {
			words = append(words, g.robustSendWordStmts(nil, c, i, g.slice(addrRef, span[0], span[1]), tail))
		}
	} else {
		words = append(words, g.robustSendWordStmts(nil, c, 0, g.requestWord(), tail))
	}
	k := g.robustRecvKit(ok, tmo)
	rxRef := spec.Ref(rxdata)
	for _, span := range wordSpans(c.DataBits(), g.bus.Width) {
		words = append(words, g.robustRecvWordStmts(nil, k, g.latchWord(rxRef, span)))
	}
	p.Body = g.closeRobust(c, ok, g.retryLoop(c, ok, attempt, words))
	return p
}

// buildRobustServeWriteProc is the hardened buildServeWriteProc. Any
// watchdog Return fires before the commit, so a faulted transaction
// never half-writes the variable.
func (g *generator) buildRobustServeWriteProc(c *spec.Channel) *spec.Procedure {
	p := &spec.Procedure{Name: "Recv" + c.Name}
	mBits := c.DataBits() + c.AddrBits()
	msg := spec.NewVar("msg", spec.BitVector(mBits))
	tmo := spec.NewVar("tmo", spec.Bool)
	p.Locals = append(p.Locals, msg, tmo)

	commit := g.commitStmt(c, msg)
	msgRef := spec.Ref(msg)
	k := g.robustServeKit(c, tmo)
	spans := wordSpans(mBits, g.bus.Width)
	var body []spec.Stmt
	for i, span := range spans {
		latch := g.latchWord(msgRef, span)
		if g.cfg.CommitAck && i == len(spans)-1 {
			// Ack-of-ack commit: the variable commits inside the final
			// word's latch, before that word's DONE rises. The closing
			// handshake then acknowledges a commit that already
			// happened — losing it can abort only the wire etiquette,
			// never the data — and a whole-transaction retransmission
			// re-latches and re-commits the identical message.
			body = g.robustServeWordStmts(body, k, i, latch, commit)
		} else {
			body = g.robustServeWordStmts(body, k, i, latch)
		}
	}
	if !g.cfg.CommitAck {
		body = append(body, commit)
	}
	p.Body = body
	return p
}

// buildRobustServeReadProc is the hardened buildServeReadProc.
func (g *generator) buildRobustServeReadProc(c *spec.Channel) *spec.Procedure {
	p := &spec.Procedure{Name: "Send" + c.Name}
	dataBits := c.DataBits()
	tmo := spec.NewVar("tmo", spec.Bool)
	k := g.robustServeKit(c, tmo)

	var body []spec.Stmt
	addrBuf, value := readValue(p, c)
	if addrBuf != nil {
		bufRef := spec.Ref(addrBuf)
		for i, span := range wordSpans(c.AddrBits(), g.bus.Width) {
			body = g.robustServeWordStmts(body, k, i, g.latchWord(bufRef, span))
		}
	} else {
		body = g.robustServeWordStmts(body, k, 0)
	}

	dataBuf := spec.NewVar("databuf", spec.BitVector(dataBits))
	p.Locals = append(p.Locals, dataBuf, tmo)
	dataRef := spec.Ref(dataBuf)
	body = append(body, spec.AssignVar(dataRef, g.coerceToMsg(value, dataBits)))
	tail := g.robustServerSendTail(tmo)
	for _, span := range wordSpans(dataBits, g.bus.Width) {
		body = g.robustServerSendWordStmts(body, g.slice(dataRef, span[0], span[1]), tail)
	}
	p.Body = body
	return p
}
