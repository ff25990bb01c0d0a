// Package protogen implements protocol generation (Section 4 of Narayan &
// Gajski, DAC'94): given a bus (a channel group with a selected width), it
// defines the exact mechanism of data transfer over the bus and refines
// the system specification so it is simulatable.
//
// The five steps of the paper:
//
//  1. Protocol selection — a communication protocol (full handshake,
//     half handshake, fixed delay, hardwired port) determines the bus's
//     control lines (START/DONE for the full handshake).
//  2. ID assignment — with N channels on the bus, ceil(log2(N)) ID lines
//     address the channel owning the bus at any time; each channel gets a
//     unique ID.
//  3. Bus structure and procedure definition — the bus is declared as a
//     global record signal (data + control + ID lines), and for each
//     channel send/receive procedures encapsulating the wire-level
//     transfer sequence are generated, slicing messages wider than the
//     bus into multiple bus words.
//  4. Variable-reference update — accesses to variables assigned to other
//     system components are replaced by calls to the generated send and
//     receive procedures ("X <= 32" becomes "SendCH0(32)"; reads nested in
//     expressions are hoisted into temporaries, "MEM(AD) := X + 7" becomes
//     "ReceiveCH1(Xtemp); SendCH2(AD, Xtemp + 7)").
//  5. Variable-process generation — for each remote variable a server
//     behavior (Xproc, MEMproc) is created that decodes the bus ID lines
//     and services read and write requests, making the refined
//     specification executable.
//
// Wire-level protocol. The paper's Fig. 4 fixes the write direction: the
// sender drives DATA and START and the receiver answers on DONE, two
// clocks per bus word (Eq. 2). For read channels — which Fig. 5 uses but
// does not detail — this package uses the mirror-image convention: the
// accessor first transfers the address (or a zero-data request word for
// scalar reads) exactly like a write, then the variable process streams
// the data words back driving DATA and DONE, with the accessor
// acknowledging on START. Each word costs two clocks in either direction.
//
// One deliberate deviation from the paper's listing: the generated
// variable processes dispatch on "wait until B.START = '1'" and then
// decode B.ID, rather than Fig. 5's "wait on B.ID". Waiting on ID events
// deadlocks when two consecutive transactions use the same channel (the
// ID lines never change); dispatching on the request strobe is
// insensitive to that and needs no extra wires.
package protogen

import (
	"fmt"
	"sort"

	"repro/internal/bits"
	"repro/internal/spec"
)

// Config parameterizes protocol generation.
type Config struct {
	// Protocol is the selected communication protocol (step 1). The
	// zero value is the paper's full handshake.
	Protocol spec.Protocol
	// BusSignalName optionally overrides the generated bus signal name;
	// empty means the bus's own name.
	BusSignalName string
	// Arbitrate adds REQ/GRANT bus arbitration and a generated arbiter
	// process, allowing multiple behaviors to open transactions
	// concurrently (the paper's Section 6 future work; see arbiter.go).
	Arbitrate bool
	// ArbiterPolicy selects the grant policy when Arbitrate is set; the
	// zero value is the fixed-priority arbiter.
	ArbiterPolicy ArbiterPolicy
	// Robust hardens the generated wire sequences against lost or
	// corrupted strobes (see robust.go): every handshake wait gets a
	// timeout, full-handshake accessors retransmit whole transactions
	// (up to MaxRetries, resynchronizing the server over an extra RST
	// line) before aborting cleanly, and variable processes get a
	// watchdog that returns to the dispatch loop when a transaction
	// stalls. Only handshake protocols can be hardened.
	Robust bool
	// TimeoutClocks bounds each hardened handshake wait; 0 means
	// DefaultTimeoutClocks. Requires Robust.
	TimeoutClocks int64
	// MaxRetries bounds transaction retransmission attempts on the full
	// handshake; 0 means DefaultMaxRetries. Requires Robust.
	MaxRetries int
	// Parity adds a PAR line carrying even parity over DATA and ID and
	// a NACK line on which the receiver rejects a corrupted word,
	// triggering retransmission. Requires Robust and the full handshake
	// (the only protocol with a receiver-to-sender feedback path).
	Parity bool
	// GrantHold makes the arbiter hold GVALID one extra clock after the
	// granted accessor's REQ falls, so the grant covers the transaction's
	// commit/release window: the master keeps the bus until its closing
	// edge has propagated, and a competing requester cannot be granted
	// into a bus whose previous owner is still driving its release.
	// Requires Arbitrate.
	GrantHold bool
	// BusPark parks the grant on the last bus owner: when the same
	// accessor re-requests, the arbiter skips the GRANT assignment and
	// its setup clock (the lines already select that owner) and re-raises
	// GVALID directly. Retries and back-to-back transactions from one
	// master re-acquire the bus without paying re-arbitration latency.
	// Requires Arbitrate.
	BusPark bool

	// The remaining knobs form the bounded repair grammar applied by
	// internal/repair: each closes one failure window the model checker
	// can exhibit in the hardened sequences. They are orthogonal and may
	// be combined freely.

	// CommitAck moves a write server's variable commit from after the
	// whole transaction into the final word's latch, before that word's
	// DONE rises. The accessor's last acknowledgement then confirms a
	// commit that has already happened, closing the lost-ack two-generals
	// window (DESIGN.md §5d): if the final strobe fall is lost and the
	// server's bounded wait aborts the tail of the handshake, the data is
	// already durable, and a retransmission merely re-commits the same
	// message (idempotent). Requires Robust and the full handshake.
	CommitAck bool
	// ReleaseStale lets a server's drain phase release a START strobe
	// that has been stuck high for a full timeout (the accessor's fall
	// event was lost on the wire): the dispatcher drives START to '0' —
	// deasserting a strobe is a release either side may perform — and
	// flushes one clock, restoring the bus to an armable state instead
	// of cycling drain timeouts forever (the watchdog lasso). Requires
	// Robust and the full handshake.
	ReleaseStale bool
	// AckSeq adds a SEQ line carrying the word-index parity of each
	// accessor-driven word; servers accept a word only when SEQ matches
	// the index they expect, so a stale strobe left over from the
	// previous word cannot be mistaken for the next one (word-framing
	// desynchronization). Requires Robust and the full handshake.
	AckSeq bool
	// EpochResync adds an EPOCH line pulsed alongside RST on every
	// retransmission; server bail-out conditions watch both lines, so a
	// resynchronization survives the loss of either edge within a
	// one-drop budget (dual-rail resync). Requires Robust and the full
	// handshake.
	EpochResync bool
	// TurnFlush appends a one-clock flush after the half handshake's
	// server-driven data phase lowers START, so the pending fall commits
	// before the server re-arms and the accessor opens its next
	// transaction — closing the read-turnaround driver contention
	// (DESIGN.md §5d). Requires the half handshake.
	TurnFlush bool
}

// Default hardening parameters, used when Config.Robust is set and the
// corresponding knob is zero.
const (
	// DefaultTimeoutClocks is the per-wait timeout: generously above
	// the two clocks a fault-free word transfer needs, small enough
	// that retries resolve quickly.
	DefaultTimeoutClocks = 16
	// DefaultMaxRetries is the retransmission budget per transaction.
	DefaultMaxRetries = 3
)

// Validate checks the configuration for internal contradictions and
// combinations the selected protocol cannot express. Generate calls it;
// callers assembling configurations from user input (flags) may want the
// error before running the whole flow.
func (c Config) Validate() error {
	if c.Arbitrate && c.Protocol == spec.HardwiredPort {
		return fmt.Errorf("protogen: hardwired ports are point-to-point wires with a single accessor: nothing to arbitrate")
	}
	if !c.Arbitrate {
		switch {
		case c.GrantHold:
			return fmt.Errorf("protogen: GrantHold extends the arbiter's grant policy: requires Arbitrate")
		case c.BusPark:
			return fmt.Errorf("protogen: BusPark extends the arbiter's grant policy: requires Arbitrate")
		}
	}
	if c.TimeoutClocks < 0 {
		return fmt.Errorf("protogen: negative TimeoutClocks %d", c.TimeoutClocks)
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("protogen: negative MaxRetries %d", c.MaxRetries)
	}
	if c.TurnFlush && c.Protocol != spec.HalfHandshake {
		return fmt.Errorf("protogen: TurnFlush repairs the half handshake's read turnaround: meaningless on %s", c.Protocol)
	}
	if !c.Robust {
		switch {
		case c.Parity:
			return fmt.Errorf("protogen: Parity requires Robust (NACK-and-retry is part of the hardened sequence)")
		case c.TimeoutClocks != 0:
			return fmt.Errorf("protogen: TimeoutClocks requires Robust")
		case c.MaxRetries != 0:
			return fmt.Errorf("protogen: MaxRetries requires Robust")
		}
		if name := c.firstRetryKnob(); name != "" {
			return fmt.Errorf("protogen: %s repairs the hardened retransmission sequences: requires Robust", name)
		}
		return nil
	}
	switch c.Protocol {
	case spec.FixedDelay, spec.HardwiredPort:
		return fmt.Errorf("protogen: %s has no handshake waits to bound: timeouts, retransmission and parity are inexpressible (Robust needs a handshake protocol)", c.Protocol)
	case spec.HalfHandshake:
		if c.Parity {
			return fmt.Errorf("protogen: half handshake has no receiver-to-sender feedback path: parity NACK is inexpressible")
		}
		if c.MaxRetries != 0 {
			return fmt.Errorf("protogen: half handshake gives the sender no acknowledgement to miss: retransmission is inexpressible (Robust adds only the server watchdog)")
		}
		if name := c.firstRetryKnob(); name != "" {
			return fmt.Errorf("protogen: %s repairs the full handshake's retransmission machinery (RST, retry loops): inexpressible on the half handshake", name)
		}
	}
	return nil
}

// firstRetryKnob names the first set repair knob that presupposes the
// full-handshake retransmission machinery, or "" when none is set.
func (c Config) firstRetryKnob() string {
	switch {
	case c.CommitAck:
		return "CommitAck"
	case c.ReleaseStale:
		return "ReleaseStale"
	case c.AckSeq:
		return "AckSeq"
	case c.EpochResync:
		return "EpochResync"
	}
	return ""
}

// ArbiterPolicy enumerates generated arbiter grant policies.
type ArbiterPolicy int

// Arbiter policies.
const (
	// PriorityArbiter always grants the lowest-index requester: tiny
	// hardware, but a persistent low-index requester can starve others.
	PriorityArbiter ArbiterPolicy = iota
	// RoundRobinArbiter starts each grant scan after the last granted
	// index, guaranteeing every requester is served within one rotation.
	RoundRobinArbiter
)

func (p ArbiterPolicy) String() string {
	if p == RoundRobinArbiter {
		return "round-robin"
	}
	return "priority"
}

// Refinement reports what protocol generation added to the system.
type Refinement struct {
	Bus *spec.Bus
	// BusSignal is the generated global record signal.
	BusSignal *spec.Variable
	// AccessorProcs maps each channel to the send/receive procedure
	// generated into its accessing behavior.
	AccessorProcs map[*spec.Channel]*spec.Procedure
	// ServerProcs maps each channel to the serve procedure generated
	// into its variable process.
	ServerProcs map[*spec.Channel]*spec.Procedure
	// Servers lists the generated variable processes (Xproc, MEMproc),
	// in creation order.
	Servers []*spec.Behavior
	// Temps lists the temporaries created while hoisting remote reads.
	Temps []*spec.Variable
	// RewrittenStmts counts the accessor statements replaced in step 4.
	RewrittenStmts int
	// Arbiter is the generated bus arbiter process, nil unless
	// Config.Arbitrate was set and the bus has several accessors.
	Arbiter *spec.Behavior
	// AbortCounters lists the module variables counting cleanly aborted
	// transactions, one per module with hardened accessors (only when
	// Config.Robust enables retransmission). A fault campaign reads
	// them to tell a clean abort from silent corruption.
	AbortCounters []*spec.Variable
}

// AbortKeys returns the simulator Finals keys ("Module.Var") of the
// refinement's abort counters, in creation order.
func (r *Refinement) AbortKeys() []string {
	keys := make([]string, len(r.AbortCounters))
	for i, v := range r.AbortCounters {
		keys[i] = v.Owner.Name + "." + v.Name
	}
	return keys
}

// Generate runs protocol generation for one bus of the system, mutating
// the system in place (adding the bus signal, procedures and variable
// processes, and rewriting accessor bodies) and returning the refinement
// report. The bus must already have a positive width — normally chosen by
// bus generation — and its channels must belong to the system.
func Generate(sys *spec.System, bus *spec.Bus, cfg Config) (*Refinement, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if bus.Width <= 0 {
		return nil, fmt.Errorf("protogen: bus %s has no width (run bus generation first)", bus.Name)
	}
	if len(bus.Channels) == 0 {
		return nil, fmt.Errorf("protogen: bus %s has no channels", bus.Name)
	}
	for _, c := range bus.Channels {
		if sys.FindChannel(c.Name) != c {
			return nil, fmt.Errorf("protogen: channel %s of bus %s not in system", c.Name, bus.Name)
		}
		if c.Accessor == nil || c.Var == nil || c.Var.Owner == nil {
			return nil, fmt.Errorf("protogen: channel %s incompletely specified", c.Name)
		}
	}
	// Hardwired ports dedicate wires to a single channel; sharing them
	// defeats the point (and the wires carry no ID or control lines to
	// multiplex with). A group needing hardwired ports is one bus per
	// channel.
	if cfg.Protocol == spec.HardwiredPort && len(bus.Channels) > 1 {
		return nil, fmt.Errorf("protogen: bus %s: hardwired ports cannot be shared by %d channels "+
			"(split the group into one bus per channel)", bus.Name, len(bus.Channels))
	}

	g := &generator{
		sys: sys,
		bus: bus,
		cfg: cfg,
		ref: &Refinement{
			Bus:           bus,
			AccessorProcs: make(map[*spec.Channel]*spec.Procedure),
			ServerProcs:   make(map[*spec.Channel]*spec.Procedure),
		},
		servers:   make(map[*spec.Variable]*spec.Behavior),
		abortVars: make(map[*spec.Module]*spec.Variable),
	}

	// Step 1: protocol selection.
	bus.Protocol = cfg.Protocol
	bus.Robust = cfg.Robust
	bus.Parity = cfg.Parity
	bus.AckSeq = cfg.AckSeq && g.robustRetry()
	bus.EpochResync = cfg.EpochResync && g.robustRetry()

	// Step 2: ID assignment.
	g.assignIDs()

	// Step 3: bus structure and send/receive procedures.
	g.declareBus()
	for _, c := range bus.Channels {
		g.generateProcedures(c)
	}
	g.attachArbiter()

	// Step 4: update variable references in accessor behaviors.
	if err := g.rewriteAccessors(); err != nil {
		return nil, err
	}

	// Step 5: dispatcher loops for the variable processes.
	g.finishServers()

	return g.ref, nil
}

type generator struct {
	sys     *spec.System
	bus     *spec.Bus
	cfg     Config
	ref     *Refinement
	servers map[*spec.Variable]*spec.Behavior
	// serverArms accumulates (channel, serve procedure) dispatch arms
	// per server, in channel order.
	serverArms map[*spec.Behavior][]dispatchArm
	// abortVars caches the per-module abort counter variables created
	// by hardened accessors (robust.go).
	abortVars map[*spec.Module]*spec.Variable
}

type dispatchArm struct {
	ch   *spec.Channel
	proc *spec.Procedure
}

// assignIDs gives each channel of the bus a unique ID of IDBits width
// (step 2). Channels are numbered in bus order: CH0 -> "00", CH1 -> "01"
// and so on, as in the paper's example.
func (g *generator) assignIDs() {
	idBits := g.bus.IDBits()
	for i, c := range g.bus.Channels {
		c.IDBits = idBits
		if idBits > 0 {
			c.ID = bits.FromUint(uint64(i), idBits)
		} else {
			c.ID = bits.New(0)
		}
	}
}

// declareBus builds the bus record type and the global bus signal
// (step 3, structure half). Field layout for the full handshake:
//
//	type HandShakeBus is record
//	  START, DONE : bit;
//	  ID   : bit_vector(idBits-1 downto 0);
//	  DATA : bit_vector(width-1 downto 0);
//	end record;
//	signal B : HandShakeBus;
func (g *generator) declareBus() {
	var fields []spec.Field
	switch g.cfg.Protocol {
	case spec.FullHandshake:
		fields = append(fields, spec.Field{Name: "START", Type: spec.Bit}, spec.Field{Name: "DONE", Type: spec.Bit})
	case spec.HalfHandshake:
		fields = append(fields, spec.Field{Name: "START", Type: spec.Bit})
	}
	if g.robustRetry() {
		fields = append(fields, spec.Field{Name: "RST", Type: spec.Bit})
		if g.cfg.AckSeq {
			fields = append(fields, spec.Field{Name: "SEQ", Type: spec.Bit})
		}
		if g.cfg.EpochResync {
			fields = append(fields, spec.Field{Name: "EPOCH", Type: spec.Bit})
		}
	}
	if g.cfg.Parity {
		fields = append(fields, spec.Field{Name: "PAR", Type: spec.Bit}, spec.Field{Name: "NACK", Type: spec.Bit})
	}
	if idb := g.bus.IDBits(); idb > 0 {
		fields = append(fields, spec.Field{Name: "ID", Type: spec.BitVector(idb)})
	}
	fields = append(fields, spec.Field{Name: "DATA", Type: spec.BitVector(g.bus.Width)})
	if g.arbitrated() {
		fields = append(fields, g.arbiterFields()...)
	}

	recName := recordName(g.cfg.Protocol)
	g.bus.Record = spec.RecordType{Name: recName, Fields: fields}

	name := g.cfg.BusSignalName
	if name == "" {
		name = g.bus.Name
	}
	sig := spec.NewSignal(name, g.bus.Record)
	g.sys.AddGlobal(sig)
	g.bus.Signal = sig
	g.ref.BusSignal = sig
}

func recordName(p spec.Protocol) string {
	switch p {
	case spec.HalfHandshake:
		return "HalfHandShakeBus"
	case spec.FixedDelay:
		return "FixedDelayBus"
	case spec.HardwiredPort:
		return "PortBus"
	}
	return "HandShakeBus"
}

// busField returns the lvalue/rvalue expression B.<field>.
func (g *generator) busField(field string) spec.Expr {
	return spec.FieldOf(spec.Ref(g.bus.Signal), field)
}

// idMatches returns the condition B.ID = "<id>"; for single-channel buses
// (no ID lines) it returns nil.
func (g *generator) idMatches(c *spec.Channel) spec.Expr {
	if c.IDBits == 0 {
		return nil
	}
	return spec.Eq(g.busField("ID"), spec.Vec(c.ID))
}

func andOpt(a, b spec.Expr) spec.Expr {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	return spec.LogicalAnd(a, b)
}

// generateProcedures builds the accessor-side and server-side procedures
// for one channel (step 3, behavior half) and registers the server
// dispatch arm (step 5 preparation).
func (g *generator) generateProcedures(c *spec.Channel) {
	server := g.serverFor(c.Var)
	var accessor, serve *spec.Procedure
	switch {
	case g.robustRetry():
		if c.Dir == spec.Write {
			accessor = g.buildRobustSendProc(c)
			serve = g.buildRobustServeWriteProc(c)
		} else {
			accessor = g.buildRobustReceiveProc(c)
			serve = g.buildRobustServeReadProc(c)
		}
	default:
		if c.Dir == spec.Write {
			accessor = g.buildSendProc(c)
			serve = g.buildServeWriteProc(c)
		} else {
			accessor = g.buildReceiveProc(c)
			serve = g.buildServeReadProc(c)
		}
		if g.cfg.Robust {
			// Half handshake: the accessor never blocks on an
			// acknowledgement, so only the server side can hang; harden
			// it with the watchdog alone.
			g.hardenServeProc(serve)
		}
	}
	accessor.Channel = c
	serve.Channel = c
	c.Accessor.AddProc(accessor)
	server.AddProc(serve)
	g.ref.AccessorProcs[c] = accessor
	g.ref.ServerProcs[c] = serve
	if g.serverArms == nil {
		g.serverArms = make(map[*spec.Behavior][]dispatchArm)
	}
	g.serverArms[server] = append(g.serverArms[server], dispatchArm{ch: c, proc: serve})
}

// serverFor returns (creating on first use) the variable process serving
// remote accesses to v: behavior "<v>proc" on v's module, marked Server.
// When a variable's channels are split across several buses (each bus
// generation run creates its own servers), later servers are suffixed
// with the bus name to keep behavior names unique.
func (g *generator) serverFor(v *spec.Variable) *spec.Behavior {
	if b, ok := g.servers[v]; ok {
		return b
	}
	name := v.Name + "proc"
	if g.sys.FindBehavior(name) != nil {
		name = v.Name + "proc_" + g.bus.Name
	}
	b := spec.NewBehavior(name)
	b.Server = true
	v.Owner.AddBehavior(b)
	g.servers[v] = b
	g.ref.Servers = append(g.ref.Servers, b)
	return b
}

// wordSpans returns the (hi,lo) bit spans slicing an mBits message into
// bus words, least significant word first. The final word may be
// narrower than the bus.
func wordSpans(mBits, width int) [][2]int {
	var spans [][2]int
	for lo := 0; lo < mBits; lo += width {
		hi := lo + width - 1
		if hi > mBits-1 {
			hi = mBits - 1
		}
		spans = append(spans, [2]int{hi, lo})
	}
	return spans
}

// padToBus widens a (possibly narrower) word expression to the bus width.
func (g *generator) padToBus(x spec.Expr) spec.Expr {
	if x.Type().BitWidth() == g.bus.Width {
		return x
	}
	return &spec.Conv{X: x, To: spec.BitVector(g.bus.Width)}
}

// sendWordStmts emits one accessor-driven word transfer:
//
//	B.DATA  <= <word>;
//	B.START <= '1';
//	wait until B.DONE = '1';
//	B.START <= '0';
//	wait until B.DONE = '0';
//
// For protocols without handshake wires the transfer degenerates to a
// DATA assignment plus a one-clock delay.
func (g *generator) sendWordStmts(word spec.Expr) []spec.Stmt {
	one := spec.VecString("1")
	zero := spec.VecString("0")
	switch g.cfg.Protocol {
	case spec.FullHandshake:
		return []spec.Stmt{
			spec.AssignSig(g.busField("DATA"), g.padToBus(word)),
			spec.AssignSig(g.busField("START"), one),
			spec.WaitUntil(spec.Eq(g.busField("DONE"), one)),
			spec.AssignSig(g.busField("START"), zero),
			spec.WaitUntil(spec.Eq(g.busField("DONE"), zero)),
		}
	case spec.HalfHandshake:
		return []spec.Stmt{
			spec.AssignSig(g.busField("DATA"), g.padToBus(word)),
			spec.AssignSig(g.busField("START"), one),
			spec.WaitFor(1),
			spec.AssignSig(g.busField("START"), zero),
			spec.WaitFor(1),
		}
	default: // FixedDelay, HardwiredPort
		return []spec.Stmt{
			spec.AssignSig(g.busField("DATA"), g.padToBus(word)),
			spec.WaitFor(1),
		}
	}
}

// serveWordStmts emits the server side of one accessor-driven word:
//
//	wait until B.START = '1' [and B.ID = id];
//	wait for 1;                    -- word setup (first clock of Eq. 2)
//	<latch>;
//	B.DONE <= '1';
//	wait until B.START = '0';
//	B.DONE <= '0';
//	wait for 1;                    -- recovery (second clock of Eq. 2)
//
// The timed waits both charge the paper's two clocks per word and act as
// delta-cycle flush points so back-to-back phases cannot merge their
// DONE transitions into a single delta.
func (g *generator) serveWordStmts(c *spec.Channel, latch []spec.Stmt) []spec.Stmt {
	one := spec.VecString("1")
	zero := spec.VecString("0")
	switch g.cfg.Protocol {
	case spec.FullHandshake:
		stmts := []spec.Stmt{
			spec.WaitUntil(andOpt(spec.Eq(g.busField("START"), one), g.idMatches(c))),
			spec.WaitFor(1),
		}
		stmts = append(stmts, latch...)
		stmts = append(stmts,
			spec.AssignSig(g.busField("DONE"), one),
			spec.WaitUntil(spec.Eq(g.busField("START"), zero)),
			spec.AssignSig(g.busField("DONE"), zero),
			spec.WaitFor(1),
		)
		return stmts
	case spec.HalfHandshake:
		stmts := []spec.Stmt{
			spec.WaitUntil(andOpt(spec.Eq(g.busField("START"), one), g.idMatches(c))),
			spec.WaitFor(1),
		}
		stmts = append(stmts, latch...)
		stmts = append(stmts, spec.WaitUntil(spec.Eq(g.busField("START"), zero)))
		return stmts
	default:
		stmts := []spec.Stmt{spec.WaitFor(1)}
		return append(stmts, latch...)
	}
}

// serverSendWordStmts emits one server-driven word (the data phase of a
// read): the roles of START and DONE swap — the server drives DATA and
// DONE, the accessor acknowledges on START.
func (g *generator) serverSendWordStmts(word spec.Expr) []spec.Stmt {
	one := spec.VecString("1")
	zero := spec.VecString("0")
	switch g.cfg.Protocol {
	case spec.FullHandshake:
		return []spec.Stmt{
			spec.AssignSig(g.busField("DATA"), g.padToBus(word)),
			spec.WaitFor(1),
			spec.AssignSig(g.busField("DONE"), one),
			spec.WaitUntil(spec.Eq(g.busField("START"), one)),
			spec.AssignSig(g.busField("DONE"), zero),
			spec.WaitFor(1),
			spec.WaitUntil(spec.Eq(g.busField("START"), zero)),
		}
	case spec.HalfHandshake:
		stmts := []spec.Stmt{
			spec.AssignSig(g.busField("DATA"), g.padToBus(word)),
			spec.WaitFor(1),
			spec.AssignSig(g.busField("START"), one),
			spec.WaitFor(1),
			spec.AssignSig(g.busField("START"), zero),
		}
		if g.cfg.TurnFlush {
			// Flush the pending START fall before the server re-arms:
			// without it the fall is still uncommitted when the
			// dispatcher re-checks the strobe and the accessor opens its
			// next transaction, and the two drivers collide on START
			// (the read-turnaround contention of DESIGN.md §5d).
			stmts = append(stmts, spec.WaitFor(1))
		}
		return stmts
	default:
		return []spec.Stmt{
			spec.AssignSig(g.busField("DATA"), g.padToBus(word)),
			spec.WaitFor(1),
		}
	}
}

// accessorRecvWordStmts emits the accessor side of one server-driven
// word.
func (g *generator) accessorRecvWordStmts(latch []spec.Stmt) []spec.Stmt {
	one := spec.VecString("1")
	zero := spec.VecString("0")
	switch g.cfg.Protocol {
	case spec.FullHandshake:
		stmts := []spec.Stmt{
			spec.WaitUntil(spec.Eq(g.busField("DONE"), one)),
		}
		stmts = append(stmts, latch...)
		stmts = append(stmts,
			spec.AssignSig(g.busField("START"), one),
			spec.WaitUntil(spec.Eq(g.busField("DONE"), zero)),
			spec.AssignSig(g.busField("START"), zero),
		)
		return stmts
	case spec.HalfHandshake:
		stmts := []spec.Stmt{
			spec.WaitUntil(spec.Eq(g.busField("START"), one)),
		}
		stmts = append(stmts, latch...)
		stmts = append(stmts, spec.WaitUntil(spec.Eq(g.busField("START"), zero)))
		return stmts
	default:
		stmts := []spec.Stmt{spec.WaitFor(1)}
		return append(stmts, latch...)
	}
}

// setID emits the ID-line assignment opening a transaction, if the bus
// has ID lines.
func (g *generator) setID(c *spec.Channel) []spec.Stmt {
	if c.IDBits == 0 {
		return nil
	}
	return []spec.Stmt{spec.AssignSig(g.busField("ID"), spec.Vec(c.ID))}
}

// buildSendProc generates the accessor's SendCHk procedure for a write
// channel: for arrays, SendCHk(addr, txdata); for scalars,
// SendCHk(txdata). The message (address high, data low) is sliced into
// bus words and each word is transferred with the accessor-driven
// handshake, as in the paper's Fig. 4.
func (g *generator) buildSendProc(c *spec.Channel) *spec.Procedure {
	p := &spec.Procedure{Name: "Send" + c.Name}
	dataBits, addrBits := c.DataBits(), c.AddrBits()
	txdata := spec.NewVar("txdata", spec.BitVector(dataBits))
	var addr *spec.Variable
	if addrBits > 0 {
		addr = spec.NewVar("addr", spec.BitVector(addrBits))
		p.Params = append(p.Params, spec.Param{Var: addr, Mode: spec.ModeIn})
	}
	p.Params = append(p.Params, spec.Param{Var: txdata, Mode: spec.ModeIn})

	// msg := addr & txdata (address in the high bits)
	mBits := dataBits + addrBits
	msg := spec.NewVar("msg", spec.BitVector(mBits))
	p.Locals = append(p.Locals, msg)
	var body []spec.Stmt
	if addrBits > 0 {
		body = append(body, spec.AssignVar(spec.Ref(msg), spec.Bin(spec.OpConcat, spec.Ref(addr), spec.Ref(txdata))))
	} else {
		body = append(body, spec.AssignVar(spec.Ref(msg), spec.Ref(txdata)))
	}
	body = append(body, g.setID(c)...)
	for _, span := range wordSpans(mBits, g.bus.Width) {
		body = append(body, g.sendWordStmts(spec.SliceBits(spec.Ref(msg), span[0], span[1]))...)
	}
	body = append(body, g.turnaround()...)
	p.Body = g.wrapArbitration(c.Accessor, body)
	return p
}

// turnaround closes an accessor transaction with a one-clock bus
// turnaround. Besides modeling the bus release cycle, the timed wait is
// a delta-cycle flush point: without it a back-to-back transaction from
// the same accessor would lower and re-raise START within a single
// delta, the transitions would coalesce, and the variable process
// waiting for the strobe to fall would hang.
func (g *generator) turnaround() []spec.Stmt {
	switch g.cfg.Protocol {
	case spec.FullHandshake:
		return []spec.Stmt{spec.WaitFor(1)}
	default:
		// Half-handshake word transfers already end in a timed wait;
		// fixed-delay and hardwired transfers have no strobe to
		// coalesce.
		return nil
	}
}

// buildServeWriteProc generates the variable process's serve procedure
// for a write channel: it assembles the incoming words into a message
// buffer and commits the data to the variable (indexed by the address
// bits for arrays).
func (g *generator) buildServeWriteProc(c *spec.Channel) *spec.Procedure {
	p := &spec.Procedure{Name: "Recv" + c.Name}
	dataBits, addrBits := c.DataBits(), c.AddrBits()
	mBits := dataBits + addrBits
	msg := spec.NewVar("msg", spec.BitVector(mBits))
	p.Locals = append(p.Locals, msg)

	var body []spec.Stmt
	for _, span := range wordSpans(mBits, g.bus.Width) {
		w := span[0] - span[1] + 1
		latch := []spec.Stmt{
			spec.AssignVar(
				spec.SliceBits(spec.Ref(msg), span[0], span[1]),
				spec.SliceBits(g.busField("DATA"), w-1, 0),
			),
		}
		body = append(body, g.serveWordStmts(c, latch)...)
	}
	// Commit.
	if addrBits > 0 {
		addrSlice := spec.SliceBits(spec.Ref(msg), mBits-1, dataBits)
		dataSlice := spec.SliceBits(spec.Ref(msg), dataBits-1, 0)
		elem := c.Var.Type.(spec.ArrayType).Elem
		body = append(body, spec.AssignVar(
			spec.At(spec.Ref(c.Var), spec.ToInt(addrSlice)), g.coerceToVar(dataSlice, elem)))
	} else {
		body = append(body, spec.AssignVar(spec.Ref(c.Var), g.coerceToVar(spec.Ref(msg), c.Var.Type)))
	}
	p.Body = body
	return p
}

// coerceToVar adapts a bit-vector message to the variable's declared
// type (identity for bit vectors, conversion for integers).
func (g *generator) coerceToVar(x spec.Expr, t spec.Type) spec.Expr {
	switch t.(type) {
	case spec.IntegerType:
		return spec.ToIntSigned(x)
	}
	return x
}

// coerceToMsg adapts a variable value to the channel's bit-vector
// message form.
func (g *generator) coerceToMsg(x spec.Expr, dataBits int) spec.Expr {
	switch x.Type().(type) {
	case spec.IntegerType:
		return spec.ToVec(x, dataBits)
	}
	return x
}

// buildReceiveProc generates the accessor's ReceiveCHk procedure for a
// read channel: ReceiveCHk(addr, rxdata) for arrays, ReceiveCHk(rxdata)
// for scalars. The address phase (or a zero-data request word for
// scalars) travels accessor-to-server like a write; the data phase
// travels back with the roles of START and DONE swapped.
func (g *generator) buildReceiveProc(c *spec.Channel) *spec.Procedure {
	p := &spec.Procedure{Name: "Receive" + c.Name}
	dataBits, addrBits := c.DataBits(), c.AddrBits()
	var addr *spec.Variable
	if addrBits > 0 {
		addr = spec.NewVar("addr", spec.BitVector(addrBits))
		p.Params = append(p.Params, spec.Param{Var: addr, Mode: spec.ModeIn})
	}
	rxdata := spec.NewVar("rxdata", spec.BitVector(dataBits))
	p.Params = append(p.Params, spec.Param{Var: rxdata, Mode: spec.ModeOut})

	body := g.setID(c)
	// Request/address phase.
	if addrBits > 0 {
		for _, span := range wordSpans(addrBits, g.bus.Width) {
			body = append(body, g.sendWordStmts(spec.SliceBits(spec.Ref(addr), span[0], span[1]))...)
		}
	} else {
		body = append(body, g.sendWordStmts(spec.Vec(bits.New(min(g.bus.Width, 1))))...)
	}
	// Data phase.
	for _, span := range wordSpans(dataBits, g.bus.Width) {
		w := span[0] - span[1] + 1
		latch := []spec.Stmt{
			spec.AssignVar(
				spec.SliceBits(spec.Ref(rxdata), span[0], span[1]),
				spec.SliceBits(g.busField("DATA"), w-1, 0),
			),
		}
		body = append(body, g.accessorRecvWordStmts(latch)...)
	}
	p.Body = g.wrapArbitration(c.Accessor, g.buildReceiveProcEnd(body))
	return p
}

// buildServeReadProc generates the variable process's serve procedure
// for a read channel: receive the address (or request) words, look the
// value up, and stream the data words back.
func (g *generator) buildServeReadProc(c *spec.Channel) *spec.Procedure {
	p := &spec.Procedure{Name: "Send" + c.Name}
	dataBits, addrBits := c.DataBits(), c.AddrBits()

	var body []spec.Stmt
	var value spec.Expr
	if addrBits > 0 {
		addrBuf := spec.NewVar("addrbuf", spec.BitVector(addrBits))
		p.Locals = append(p.Locals, addrBuf)
		for _, span := range wordSpans(addrBits, g.bus.Width) {
			w := span[0] - span[1] + 1
			latch := []spec.Stmt{
				spec.AssignVar(
					spec.SliceBits(spec.Ref(addrBuf), span[0], span[1]),
					spec.SliceBits(g.busField("DATA"), w-1, 0),
				),
			}
			body = append(body, g.serveWordStmts(c, latch)...)
		}
		value = spec.At(spec.Ref(c.Var), spec.ToInt(spec.Ref(addrBuf)))
	} else {
		body = append(body, g.serveWordStmts(c, nil)...) // request word, no latch
		value = spec.Ref(c.Var)
	}

	dataBuf := spec.NewVar("databuf", spec.BitVector(dataBits))
	p.Locals = append(p.Locals, dataBuf)
	body = append(body, spec.AssignVar(spec.Ref(dataBuf), g.coerceToMsg(value, dataBits)))
	for _, span := range wordSpans(dataBits, g.bus.Width) {
		body = append(body, g.serverSendWordStmts(spec.SliceBits(spec.Ref(dataBuf), span[0], span[1]))...)
	}
	p.Body = body
	return p
}

// buildReceiveProcEnd appends the transaction turnaround to a receive
// procedure body (separated for symmetry with buildSendProc).
func (g *generator) buildReceiveProcEnd(body []spec.Stmt) []spec.Stmt {
	return append(body, g.turnaround()...)
}

// finishServers builds each variable process's dispatcher body (step 5):
//
//	loop
//	  wait until B.START = '1';
//	  if    B.ID = "00" then RecvCH0;
//	  elsif B.ID = "01" then SendCH1;
//	  end if;
//	end loop;
func (g *generator) finishServers() {
	one := spec.VecString("1")
	// Deterministic server order: creation order.
	for _, server := range g.ref.Servers {
		arms := g.serverArms[server]
		sort.SliceStable(arms, func(i, j int) bool {
			return arms[i].ch.ID.CompareUnsigned(arms[j].ch.ID) < 0
		})
		var dispatch spec.Stmt
		if len(arms) == 1 && arms[0].ch.IDBits == 0 {
			dispatch = spec.CallProc(arms[0].proc)
		} else {
			ifStmt := &spec.If{Cond: g.idMatches(arms[0].ch), Then: []spec.Stmt{spec.CallProc(arms[0].proc)}}
			for _, arm := range arms[1:] {
				ifStmt.Elifs = append(ifStmt.Elifs, spec.ElseIf{
					Cond: g.idMatches(arm.ch),
					Body: []spec.Stmt{spec.CallProc(arm.proc)},
				})
			}
			// A request addressed to a channel served by another
			// variable process: wait out the current bus word so the
			// dispatcher does not spin on the still-asserted strobe.
			if g.cfg.Protocol == spec.FullHandshake || g.cfg.Protocol == spec.HalfHandshake {
				waitOut := spec.Expr(spec.Eq(g.busField("START"), spec.VecString("0")))
				if g.cfg.Robust {
					// Hardened: a stuck foreign strobe must not wedge
					// this server forever.
					if g.robustRetry() {
						waitOut = g.orRST(waitOut)
					}
					ifStmt.Else = []spec.Stmt{spec.WaitUntilFor(waitOut, g.timeout(), nil)}
				} else {
					ifStmt.Else = []spec.Stmt{spec.WaitUntil(waitOut)}
				}
			}
			dispatch = ifStmt
		}
		var trigger spec.Stmt
		switch g.cfg.Protocol {
		case spec.FullHandshake, spec.HalfHandshake:
			trigger = spec.WaitUntil(spec.Eq(g.busField("START"), one))
		default:
			// No strobe wires: dispatch on ID changes (fixed-delay
			// transfers are rate-matched by construction).
			if g.bus.IDBits() > 0 {
				trigger = spec.WaitOn(g.bus.Signal)
			} else {
				trigger = spec.WaitFor(1)
			}
		}
		var loop []spec.Stmt
		if g.robustRetry() {
			// Re-arm: a watchdog abort can return here with DONE (or
			// NACK) still asserted; clearing the server-driven lines
			// before the next dispatch keeps every abort path clean.
			loop = append(loop, spec.AssignSig(g.busField("DONE"), spec.VecString("0")))
			if g.cfg.Parity {
				loop = append(loop, spec.AssignSig(g.busField("NACK"), spec.VecString("0")))
			}
			// Drain before arming: dispatch only on a strobe that rises
			// *after* the previous one fell. Dispatching on the level —
			// fine with ideal wires — re-serves word 0 of a transaction
			// whose strobe is stuck high while the accessor is mid-way
			// through, silently desynchronizing the word framing.
			drained := server.AddVar("stale", spec.Bool)
			arm := &spec.If{Cond: spec.Not(spec.Ref(drained)), Then: []spec.Stmt{trigger, dispatch}}
			if g.cfg.ReleaseStale {
				// The strobe has been stuck high for a full timeout: the
				// accessor's fall event was lost on the wire and nobody
				// else will ever lower it. Deasserting a strobe to zero
				// is a release either side may perform; doing it here
				// restores an armable bus instead of cycling drain
				// timeouts forever. A fresh strobe clobbered by this
				// release recovers through the accessor's own
				// timeout-and-retransmit path.
				arm.Else = []spec.Stmt{
					spec.AssignSig(g.busField("START"), spec.VecString("0")),
					spec.WaitFor(1),
				}
			}
			loop = append(loop,
				spec.WaitUntilFor(spec.Eq(g.busField("START"), spec.VecString("0")), g.timeout(), drained),
				arm,
			)
		} else {
			loop = append(loop, trigger, dispatch)
		}
		server.Body = []spec.Stmt{&spec.Loop{Body: loop}}
	}
}
