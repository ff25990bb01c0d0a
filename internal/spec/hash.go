package spec

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"

	"repro/internal/bits"
)

// Digest is a canonical content hash of a System — the cache key of the
// synthesis service (internal/serve): two systems with equal digests
// describe the same specification, so a synthesize/verify/repair result
// computed for one answers a query about the other.
type Digest [sha256.Size]byte

// String renders the digest as lowercase hex.
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// Hash computes the system's canonical content digest. The digest is
// stable across processes (no pointer values, no map iteration) and
// invariant under spec.Clone.
//
// Declaration order is folded out exactly where it carries no
// semantics: the module list, each module's variable list and the
// global-signal list are sets keyed by name (every lookup is by name
// and the declared objects are concurrent storage), so they hash as
// sorted sub-digest sets. Everything with execution or addressing
// semantics stays order-sensitive: behaviors within a module (process
// creation order), statements and procedure bodies, a bus's channel
// list (protocol generation assigns channel IDs by position) and the
// bus list itself.
//
// Identity of referenced objects never uses addresses: module-owned
// variables hash as module.name, globals as their (unique) name, and
// behavior-local storage — including procedure parameters, locals and
// ad-hoc loop counters — by a first-encounter sequence number in the
// module's deterministic walk, which distinguishes same-named locals
// in different scopes while staying clone- and process-invariant.
func Hash(sys *System) Digest {
	h := newHasher(sys)
	h.str(sys.Name)

	mark := h.mark()
	for _, m := range sys.Modules {
		h.module(m)
	}
	h.digestSet(mark)

	mark = h.mark()
	for _, g := range sys.Globals {
		h.resetLocals()
		start := h.open()
		h.variableDecl(g)
		h.close(start)
	}
	h.digestSet(mark)

	h.resetLocals()
	h.tag('C')
	h.num(int64(len(sys.Channels)))
	for _, ch := range sys.Channels {
		h.channel(ch)
	}
	h.tag('B')
	h.num(int64(len(sys.Buses)))
	for _, b := range sys.Buses {
		h.bus(b)
	}
	return sha256.Sum256(h.buf)
}

// hasher frames nodes into one byte buffer. Strings are
// length-prefixed, numbers fixed-width little-endian, and every node
// starts with a tag byte. A sub-digest frames its node after the bytes
// of the enclosing frame, hashes that suffix and truncates it away, so
// one buffer serves every level; finished sub-digests wait on a stack
// until their set is written.
type hasher struct {
	buf     []byte
	pending []Digest

	globals  map[*Variable]bool
	behOwner map[*Behavior]string

	// local numbers behavior-local storage in order of first encounter
	// within the current scope: one module, one global, or the system's
	// channels and buses.
	local     map[*Variable]int
	nextLocal int
}

func newHasher(sys *System) *hasher {
	h := &hasher{
		buf:      make([]byte, 0, 4096),
		globals:  make(map[*Variable]bool, len(sys.Globals)),
		behOwner: make(map[*Behavior]string),
		local:    make(map[*Variable]int),
	}
	for _, g := range sys.Globals {
		h.globals[g] = true
	}
	for _, m := range sys.Modules {
		for _, b := range m.Behaviors {
			h.behOwner[b] = m.Name
		}
	}
	return h
}

// resetLocals starts a fresh local numbering scope.
func (h *hasher) resetLocals() {
	clear(h.local)
	h.nextLocal = 0
}

// module hashes one module into its own sub-digest; the module set
// combines these order-independently. Locals are numbered within the
// module's walk: behaviors, their declarations and bodies hash in
// declaration order, so the numbering is deterministic.
func (h *hasher) module(m *Module) {
	h.resetLocals()
	start := h.open()
	h.str(m.Name)
	// Variable declarations are sub-digests too, but share the module's
	// local numbering, so sibling declarations keep one namespace.
	mark := h.mark()
	for _, v := range m.Variables {
		vs := h.open()
		h.variableDecl(v)
		h.close(vs)
	}
	h.digestSet(mark)
	h.num(int64(len(m.Behaviors)))
	for _, b := range m.Behaviors {
		h.behavior(b)
	}
	h.close(start)
}

// open starts a sub-digest frame. A module or a global resets the
// local numbering before it opens its frame; the declarations nested
// inside one keep it.
func (h *hasher) open() int { return len(h.buf) }

// close hashes the frame opened at start, removes it from the buffer
// and pushes its digest onto the pending stack.
func (h *hasher) close(start int) {
	h.pending = append(h.pending, sha256.Sum256(h.buf[start:]))
	h.buf = h.buf[:start]
}

// mark returns the pending-stack position a digest set starts at.
func (h *hasher) mark() int { return len(h.pending) }

// digestSet writes the sub-digests pushed since mark
// order-independently: sorted, with the count framing the set.
func (h *hasher) digestSet(mark int) {
	ds := h.pending[mark:]
	slices.SortFunc(ds, func(a, b Digest) int { return bytes.Compare(a[:], b[:]) })
	h.num(int64(len(ds)))
	for i := range ds {
		h.buf = append(h.buf, ds[i][:]...)
	}
	h.pending = h.pending[:mark]
}

func (h *hasher) tag(b byte) { h.buf = append(h.buf, b) }

func (h *hasher) num(v int64) { h.buf = binary.LittleEndian.AppendUint64(h.buf, uint64(v)) }

func (h *hasher) str(s string) {
	h.num(int64(len(s)))
	h.buf = append(h.buf, s...)
}

func (h *hasher) boolean(b bool) {
	if b {
		h.tag(1)
	} else {
		h.tag(0)
	}
}

// varRef writes a variable's identity: module-owned and global storage
// by name, everything else by local sequence number.
func (h *hasher) varRef(v *Variable) {
	switch {
	case v == nil:
		h.tag('0')
	case v.Owner != nil:
		h.tag('M')
		h.str(v.Owner.Name)
		h.str(v.Name)
	case h.globals[v]:
		h.tag('G')
		h.str(v.Name)
	default:
		id, ok := h.local[v]
		if !ok {
			id = h.nextLocal
			h.nextLocal++
			h.local[v] = id
		}
		h.tag('L')
		h.num(int64(id))
	}
}

// variableDecl writes a variable's full declaration: identity, kind,
// type and initializers.
func (h *hasher) variableDecl(v *Variable) {
	h.tag('v')
	h.varRef(v)
	h.str(v.Name) // locals carry their name only at the declaration
	h.num(int64(v.Kind))
	h.typ(v.Type)
	h.expr(v.Init)
	h.num(int64(len(v.InitArray)))
	for _, b := range v.InitArray {
		h.vec(b)
	}
}

func (h *hasher) vec(v bits.Vector) {
	h.num(int64(v.Width()))
	h.buf = v.AppendBytes(h.buf)
}

func (h *hasher) typ(t Type) {
	switch t := t.(type) {
	case nil:
		h.tag('0')
	case BitType:
		h.tag('b')
	case BoolType:
		h.tag('o')
	case IntegerType:
		h.tag('i')
		h.num(int64(t.Width))
	case BitVectorType:
		h.tag('V')
		h.num(int64(t.Width))
	case ArrayType:
		h.tag('a')
		h.num(int64(t.Length))
		h.num(int64(t.Lo))
		h.typ(t.Elem)
	case RecordType:
		h.tag('r')
		h.str(t.Name)
		h.num(int64(len(t.Fields)))
		for _, f := range t.Fields {
			h.str(f.Name)
			h.typ(f.Type)
		}
	default:
		panic("spec.Hash: unknown type " + t.String())
	}
}

func (h *hasher) behavior(b *Behavior) {
	h.tag('h')
	h.str(b.Name)
	h.boolean(b.Server)
	h.num(int64(len(b.Variables)))
	for _, v := range b.Variables {
		h.variableDecl(v)
	}
	// Procedures are looked up by name; hash the list as a named set so
	// attachment order cannot perturb the digest.
	mark := h.mark()
	for _, p := range b.Procedures {
		start := h.open()
		h.procedure(p)
		h.close(start)
	}
	h.digestSet(mark)
	h.stmts(b.Body)
}

func (h *hasher) procedure(p *Procedure) {
	h.tag('p')
	h.str(p.Name)
	h.num(int64(len(p.Params)))
	for _, prm := range p.Params {
		h.variableDecl(prm.Var)
		h.num(int64(prm.Mode))
	}
	h.num(int64(len(p.Locals)))
	for _, l := range p.Locals {
		h.variableDecl(l)
	}
	if p.Channel != nil {
		h.str(p.Channel.Name)
	} else {
		h.tag('0')
	}
	h.stmts(p.Body)
}

func (h *hasher) channel(c *Channel) {
	h.tag('c')
	h.str(c.Name)
	if c.Accessor != nil {
		h.str(h.behOwner[c.Accessor])
		h.str(c.Accessor.Name)
	} else {
		h.tag('0')
	}
	h.varRef(c.Var)
	h.num(int64(c.Dir))
	h.vec(c.ID)
	h.num(int64(c.IDBits))
	h.num(int64(c.Accesses))
	h.num(c.LifetimeClocks)
}

func (h *hasher) bus(b *Bus) {
	h.tag('u')
	h.str(b.Name)
	h.num(int64(len(b.Channels)))
	for _, c := range b.Channels {
		h.str(c.Name) // bus channel order assigns IDs: order-sensitive
	}
	h.num(int64(b.Width))
	h.num(int64(b.Protocol))
	h.typ(b.Record)
	h.varRef(b.Signal)
	h.boolean(b.Arbitrated)
	h.boolean(b.Robust)
	h.boolean(b.Parity)
	h.boolean(b.AckSeq)
	h.boolean(b.EpochResync)
}

func (h *hasher) stmts(list []Stmt) {
	h.num(int64(len(list)))
	for _, s := range list {
		h.stmt(s)
	}
}

func (h *hasher) stmt(s Stmt) {
	switch s := s.(type) {
	case nil:
		h.tag('0')
	case *Assign:
		h.tag('=')
		h.num(int64(s.Kind))
		h.expr(s.LHS)
		h.expr(s.RHS)
	case *If:
		h.tag('?')
		h.expr(s.Cond)
		h.stmts(s.Then)
		h.num(int64(len(s.Elifs)))
		for _, e := range s.Elifs {
			h.expr(e.Cond)
			h.stmts(e.Body)
		}
		h.stmts(s.Else)
	case *For:
		h.tag('F')
		h.varRef(s.Var)
		h.expr(s.From)
		h.expr(s.To)
		h.stmts(s.Body)
	case *While:
		h.tag('W')
		h.expr(s.Cond)
		h.stmts(s.Body)
	case *Loop:
		h.tag('O')
		h.stmts(s.Body)
	case *Exit:
		h.tag('X')
	case *Wait:
		h.tag('w')
		h.num(int64(len(s.On)))
		for _, v := range s.On {
			h.varRef(v)
		}
		h.expr(s.Until)
		h.boolean(s.HasFor)
		h.num(s.For)
		h.varRef(s.TimedOut)
	case *Call:
		h.tag('(')
		if s.Proc != nil {
			h.str(s.Proc.Name)
		} else {
			h.tag('0')
		}
		h.num(int64(len(s.Args)))
		for _, a := range s.Args {
			h.expr(a)
		}
	case *Return:
		h.tag('R')
	case *Null:
		h.tag('N')
	default:
		panic("spec.Hash: unknown statement type " + s.String())
	}
}

func (h *hasher) expr(e Expr) {
	switch e := e.(type) {
	case nil:
		h.tag('0')
	case *IntLit:
		h.tag('n')
		h.num(e.Value)
		h.typ(e.Typ)
	case *VecLit:
		h.tag('l')
		h.vec(e.Value)
	case *BoolLit:
		h.tag('t')
		h.boolean(e.Value)
	case *VarRef:
		h.tag('x')
		h.varRef(e.Var)
	case *Index:
		h.tag('[')
		h.expr(e.Arr)
		h.expr(e.Index)
	case *SliceExpr:
		h.tag('s')
		h.expr(e.X)
		h.expr(e.Hi)
		h.expr(e.Lo)
		h.num(int64(e.Width))
	case *FieldRef:
		h.tag('.')
		h.expr(e.X)
		h.str(e.Field)
	case *Binary:
		h.tag('+')
		h.num(int64(e.Op))
		h.expr(e.X)
		h.expr(e.Y)
	case *Unary:
		h.tag('-')
		h.num(int64(e.Op))
		h.expr(e.X)
	case *Conv:
		h.tag('>')
		h.expr(e.X)
		h.typ(e.To)
		h.boolean(e.Signed)
	default:
		panic("spec.Hash: unknown expression type " + e.String())
	}
}
