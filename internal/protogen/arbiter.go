package protogen

import (
	"repro/internal/bits"
	"repro/internal/spec"
)

// Bus arbitration — the paper's Section 6 names "the effect of bus
// arbitration delays on the performance of processes" as future work;
// this file implements it. Without arbitration, two accessors opening
// transactions concurrently corrupt the shared ID/DATA/START lines, so
// the DAC'94 flow relies on the processes never overlapping their
// transfers. With Config.Arbitrate set, protocol generation adds:
//
//   - REQ    : bit_vector(numAccessors-1 downto 0) — request lines, one
//     per accessing behavior;
//   - GRANT  : bit_vector(ceil(log2(numAccessors))-1 downto 0) — the
//     granted accessor's index;
//   - GVALID : bit — grant strobe;
//
// plus a generated ARBITER process (fixed-priority, lowest index wins)
// on the bus's home module. Every accessor transaction is wrapped in an
// acquire/release pair:
//
//	B.REQ(i) <= '1';
//	wait until B.GVALID = '1' and B.GRANT = i;
//	  ... transaction words ...
//	B.REQ(i) <= '0';
//	wait until B.GVALID = '0' or B.GRANT /= i;
//
// The arbiter costs two clocks per transaction (grant setup and bus
// turnaround), which is the "arbitration delay" the ablation benchmark
// measures.
//
// Single-accessor buses never get arbitration hardware: there is
// nothing to arbitrate.

// arbitrated reports whether this generation run adds arbitration.
func (g *generator) arbitrated() bool {
	return g.cfg.Arbitrate && len(g.accessors) > 1
}

// arbiterFields returns the record fields arbitration adds.
func (g *generator) arbiterFields() []spec.Field {
	n := len(g.accessors)
	return []spec.Field{
		{Name: "REQ", Type: spec.BitVector(n)},
		{Name: "GRANT", Type: spec.BitVector(spec.AddrBits(n))},
		{Name: "GVALID", Type: spec.Bit},
	}
}

// myGrant returns the GRANT value selecting accessor index i.
func (g *generator) myGrant(i int) spec.Expr {
	return spec.Vec(bits.FromUint(uint64(i), spec.AddrBits(len(g.accessors))))
}

// wrapArbitration wraps a generated accessor procedure body in the
// acquire/release pair for its behavior, accessor index i:
//
//	B.REQ(i downto i) <= '1';
//	wait until B.GVALID = '1' and B.GRANT = i;
//	  ... body ...
//	B.REQ(i downto i) <= '0';
//	wait until B.GVALID = '0' or B.GRANT /= i;
func (g *generator) wrapArbitration(b *spec.Behavior, body []spec.Stmt) []spec.Stmt {
	if !g.arbitrated() {
		return body
	}
	i := g.accIndex[b]
	req := g.slice(g.busField("REQ"), i, i)
	grant := g.myGrant(i)
	out := make([]spec.Stmt, 0, len(body)+4)
	out = append(out,
		spec.AssignSig(req, g.bit[1]),
		spec.WaitUntil(spec.LogicalAnd(g.is("GVALID", 1), spec.Eq(g.busField("GRANT"), grant))),
	)
	out = append(out, body...)
	return append(out,
		spec.AssignSig(req, g.bit[0]),
		spec.WaitUntil(spec.LogicalOr(g.is("GVALID", 0), spec.Neq(g.busField("GRANT"), grant))),
	)
}

// grantHoldStmts emits the extra held clock between the granted
// accessor's REQ fall and the GVALID deassert when Config.GrantHold is
// set: the grant outlives the request by one clock, covering the
// owner's commit/release edges before the bus can be re-granted.
func (g *generator) grantHoldStmts(body []spec.Stmt) []spec.Stmt {
	if !g.cfg.GrantHold {
		return body
	}
	return append(body, g.delay(1))
}

// buildArbiter generates the ARBITER process under the configured grant
// policy. It is attached to the module owning the first channel's
// variable (the bus's home module) and marked Server.
func (g *generator) buildArbiter() *spec.Behavior {
	if g.cfg.ArbiterPolicy == RoundRobinArbiter {
		return g.buildRoundRobinArbiter()
	}
	return g.buildPriorityArbiter()
}

// buildPriorityArbiter generates a fixed-priority grant loop: the
// lowest-index requester wins every scan.
func (g *generator) buildPriorityArbiter() *spec.Behavior {
	n := len(g.accessors)

	arb := spec.NewBehavior(g.bus.Name + "arbiter")
	arb.Server = true

	// Bus parking needs the last owner's index; the priority policy has
	// no other use for it. GRANT resets to index 0, so last starts at 0.
	var last *spec.Variable
	if g.cfg.BusPark {
		last = arb.AddVar("last", spec.Integer)
	}

	anyReq := spec.Neq(g.busField("REQ"), spec.Vec(bits.New(n)))

	// Priority chain: lowest request index wins.
	arm := func(i int) []spec.Stmt {
		grant := []spec.Stmt{
			spec.AssignSig(g.busField("GRANT"), g.myGrant(i)),
			g.delay(1), // grant setup clock
		}
		var stmts []spec.Stmt
		if g.cfg.BusPark {
			// Parked fast path: the GRANT lines still select the last
			// owner, so a re-request from it skips the assignment and the
			// setup clock.
			stmts = append(stmts, &spec.If{
				Cond: spec.Neq(spec.Ref(last), g.int(i)),
				Then: grant,
			})
		} else {
			stmts = append(stmts, grant...)
		}
		stmts = append(stmts,
			g.set("GVALID", 1),
			spec.WaitUntil(spec.Eq(g.slice(g.busField("REQ"), i, i), g.bit[0])),
		)
		stmts = g.grantHoldStmts(stmts)
		stmts = append(stmts, g.set("GVALID", 0))
		if g.cfg.BusPark {
			stmts = append(stmts, spec.AssignVar(spec.Ref(last), g.int(i)))
		}
		return append(stmts, g.delay(1)) // bus turnaround clock
	}
	dispatch := &spec.If{
		Cond: spec.Eq(g.slice(g.busField("REQ"), 0, 0), g.bit[1]),
		Then: arm(0),
	}
	for i := 1; i < n; i++ {
		dispatch.Elifs = append(dispatch.Elifs, spec.ElseIf{
			Cond: spec.Eq(g.slice(g.busField("REQ"), i, i), g.bit[1]),
			Body: arm(i),
		})
	}
	arb.Body = []spec.Stmt{&spec.Loop{Body: []spec.Stmt{
		spec.WaitUntil(anyReq),
		dispatch,
	}}}
	return arb
}

// buildRoundRobinArbiter generates a rotating-priority grant loop: each
// scan starts just after the last granted index, so every persistent
// requester is served within one rotation:
//
//	loop
//	  wait until B.REQ /= 0;
//	  k := 1;
//	  while k <= N loop
//	    idx := (last + k) mod N;
//	    if B.REQ(idx downto idx) = "1" then
//	      B.GRANT <= idx; wait for 1; B.GVALID <= '1';
//	      wait until B.REQ(idx downto idx) = "0";
//	      B.GVALID <= '0'; last := idx; wait for 1;
//	      exit;
//	    end if;
//	    k := k + 1;
//	  end loop;
//	end loop
//
// The dynamic single-bit select uses the IR's expression-valued slice
// bounds (static width 1).
func (g *generator) buildRoundRobinArbiter() *spec.Behavior {
	n := len(g.accessors)
	grantW := spec.AddrBits(n)

	arb := spec.NewBehavior(g.bus.Name + "arbiter")
	arb.Server = true
	last := arb.AddVar("last", spec.Integer)
	k := arb.AddVar("k", spec.Integer)
	idx := arb.AddVar("idx", spec.Integer)

	reqBit := &spec.SliceExpr{X: g.busField("REQ"), Hi: spec.Ref(idx), Lo: spec.Ref(idx), Width: 1}
	anyReq := spec.Neq(g.busField("REQ"), spec.Vec(bits.New(n)))

	grant := []spec.Stmt{
		spec.AssignSig(g.busField("GRANT"), spec.ToVec(spec.Ref(idx), grantW)),
		g.delay(1),
	}
	var open []spec.Stmt
	if g.cfg.BusPark {
		// Parked fast path: when the rotation lands back on the last
		// owner, the GRANT lines already select it — skip the assignment
		// and its setup clock.
		open = append(open, &spec.If{
			Cond: spec.Neq(spec.Ref(idx), spec.Ref(last)),
			Then: grant,
		})
	} else {
		open = append(open, grant...)
	}
	armBody := append(open,
		g.set("GVALID", 1),
		spec.WaitUntil(spec.Eq(reqBit, g.bit[0])),
	)
	armBody = g.grantHoldStmts(armBody)
	armBody = append(armBody,
		g.set("GVALID", 0),
		spec.AssignVar(spec.Ref(last), spec.Ref(idx)),
		g.delay(1),
		&spec.Exit{},
	)
	scan := &spec.While{
		Cond: spec.Le(spec.Ref(k), g.int(n)),
		Body: []spec.Stmt{
			spec.AssignVar(spec.Ref(idx),
				spec.Bin(spec.OpMod, spec.Add(spec.Ref(last), spec.Ref(k)), g.int(n))),
			&spec.If{
				Cond: spec.Eq(reqBit, g.bit[1]),
				Then: armBody,
			},
			spec.AssignVar(spec.Ref(k), spec.Add(spec.Ref(k), g.int(1))),
		},
	}
	arb.Body = []spec.Stmt{&spec.Loop{Body: []spec.Stmt{
		spec.WaitUntil(anyReq),
		spec.AssignVar(spec.Ref(k), g.int(1)),
		scan,
	}}}
	return arb
}

// attachArbiter creates and registers the arbiter process.
func (g *generator) attachArbiter() {
	if !g.arbitrated() {
		return
	}
	arb := g.buildArbiter()
	home := g.bus.Channels[0].Var.Owner
	home.AddBehavior(arb)
	g.ref.Arbiter = arb
	g.bus.Arbitrated = true
}

// ArbitrationLines reports the extra wires arbitration adds to a bus
// with the given number of accessors.
func ArbitrationLines(accessors int) int {
	if accessors <= 1 {
		return 0
	}
	return accessors + spec.AddrBits(accessors) + 1
}
