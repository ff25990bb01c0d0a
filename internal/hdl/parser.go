package hdl

import "strconv"

// ---- AST ----

type astSystem struct {
	name     string
	modules  []*astModule
	channels []*astChannel
}

type astModule struct {
	name      string
	vars      []*astVar
	behaviors []*astBehavior
}

type astVar struct {
	pos      token
	name     string
	isSignal bool
	typ      *astType
	init     astExpr
}

type astBehavior struct {
	pos    token
	name   string
	server bool
	vars   []*astVar
	procs  []*astProc
	body   []astStmt
}

type astProc struct {
	pos    token
	name   string
	params []astParam
	vars   []*astVar
	body   []astStmt
}

type astParam struct {
	pos  token
	name string
	mode string // "in", "out", "inout"
	typ  *astType
}

type astChannel struct {
	pos      token
	name     string
	behavior string
	variable string
	write    bool
}

// astType is a parsed type: kind is one of bit, boolean, integer,
// bit_vector, array.
type astType struct {
	pos    token
	kind   string
	hi, lo astExpr  // bit_vector bounds (hi downto lo)
	aLo    astExpr  // array lower bound
	aHi    astExpr  // array upper bound
	elem   *astType // array element
}

// astExpr is an expression node.
type astExpr interface{ pos() token }

type astNum struct {
	tok token
	v   int64
}

type astBit struct {
	tok token
	v   string
}

type astVec struct {
	tok token
	v   string // binary digits
	hex bool
}

type astBool struct {
	tok token
	v   bool
}

type astName struct{ tok token }

// astApply is name-or-expression applied to parenthesized arguments:
// array index, slice (downto form) or procedure/conversion call; the
// elaborator disambiguates.
type astApply struct {
	fn     astExpr
	args   []astExpr
	hi, lo astExpr // non-nil for the slice form
}

type astField struct {
	x     astExpr
	field string
	tok   token
}

type astBinary struct {
	op   string
	x, y astExpr
	tok  token
}

type astUnary struct {
	op  string
	x   astExpr
	tok token
}

func (e *astNum) pos() token    { return e.tok }
func (e *astBit) pos() token    { return e.tok }
func (e *astVec) pos() token    { return e.tok }
func (e *astBool) pos() token   { return e.tok }
func (e *astName) pos() token   { return e.tok }
func (e *astApply) pos() token  { return e.fn.pos() }
func (e *astField) pos() token  { return e.tok }
func (e *astBinary) pos() token { return e.tok }
func (e *astUnary) pos() token  { return e.tok }

// astStmt is a statement node.
type astStmt interface{ stmtPos() token }

type astAssign struct {
	tok      token
	lhs, rhs astExpr
	signal   bool // "<=" spelling
}

type astIf struct {
	tok   token
	cond  astExpr
	then  []astStmt
	elifs []astElif
	els   []astStmt
}

type astElif struct {
	cond astExpr
	body []astStmt
}

type astFor struct {
	tok      token
	v        string
	from, to astExpr
	body     []astStmt
}

type astWhile struct {
	tok  token
	cond astExpr
	body []astStmt
}

type astLoop struct {
	tok  token
	body []astStmt
}

type astExit struct{ tok token }
type astRet struct{ tok token }
type astNull struct{ tok token }

type astWait struct {
	tok   token
	on    []token // signal names
	until astExpr
	dur   astExpr
}

type astCall struct {
	tok  token
	name string
	args []astExpr
}

func (s *astAssign) stmtPos() token { return s.tok }
func (s *astIf) stmtPos() token     { return s.tok }
func (s *astFor) stmtPos() token    { return s.tok }
func (s *astWhile) stmtPos() token  { return s.tok }
func (s *astLoop) stmtPos() token   { return s.tok }
func (s *astExit) stmtPos() token   { return s.tok }
func (s *astRet) stmtPos() token    { return s.tok }
func (s *astNull) stmtPos() token   { return s.tok }
func (s *astWait) stmtPos() token   { return s.tok }
func (s *astCall) stmtPos() token   { return s.tok }

// ---- parser ----

type parser struct {
	lx    lexer
	tok   token // the lookahead
	depth int   // current nesting, see descend
}

func newParser(src string) *parser {
	p := &parser{lx: lexer{src: src}}
	p.tok = p.lx.next()
	return p
}

func (p *parser) peek() token { return p.tok }

func (p *parser) next() token {
	t := p.tok
	if t.kind != tokEOF {
		p.tok = p.lx.next()
	}
	return t
}

// maxDepth bounds the nesting of statements, expressions and types.
// Recursive descent, and every later pass over the tree, spends stack
// in proportion to it, and a left-nested operator chain costs its
// elaboration time quadratic in its length; a Go stack overflow cannot
// be recovered, so untrusted text must not choose it. The deepest
// testdata/*.sys reaches 14, the deepest of 12,000 generated benchmark
// inputs 20.
const maxDepth = 256

// descend counts one more level of nesting: each entry into a
// statement, an expression, a unary operator or a type, and each
// operator or postfix suffix that extends a left-nested chain. The
// caller restores the depth when it returns.
func (p *parser) descend() error {
	p.depth++
	if p.depth > maxDepth {
		return errAt(p.tok, "nesting deeper than %d levels", maxDepth)
	}
	return nil
}

func (p *parser) restore(depth int) { p.depth = depth }

func (p *parser) accept(kind tokKind, text string) bool {
	t := p.peek()
	if t.kind == kind && (text == "" || t.text == text) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(kind tokKind, text string) (token, error) {
	t := p.peek()
	if t.kind != kind || (text != "" && t.text != text) {
		want := text
		if want == "" {
			want = map[tokKind]string{tokIdent: "identifier", tokNumber: "number"}[kind]
		}
		return t, errAt(t, "expected %s, found %s", want, t)
	}
	return p.next(), nil
}

func (p *parser) keyword(k string) error {
	_, err := p.expect(tokKeyword, k)
	return err
}

func (p *parser) symbol(s string) error {
	_, err := p.expect(tokSymbol, s)
	return err
}

func (p *parser) ident() (token, error) { return p.expect(tokIdent, "") }

// parseSystem parses "system <name> is ... end system ;".
func (p *parser) parseSystem() (*astSystem, error) {
	if err := p.keyword("system"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.keyword("is"); err != nil {
		return nil, err
	}
	sys := &astSystem{name: name.text}
	for {
		switch {
		case p.peek().kind == tokKeyword && p.peek().text == "module":
			m, err := p.parseModule()
			if err != nil {
				return nil, err
			}
			sys.modules = append(sys.modules, m)
		case p.peek().kind == tokKeyword && p.peek().text == "channel":
			c, err := p.parseChannel()
			if err != nil {
				return nil, err
			}
			sys.channels = append(sys.channels, c)
		default:
			if err := p.keyword("end"); err != nil {
				return nil, err
			}
			p.accept(tokKeyword, "system")
			p.accept(tokIdent, name.text)
			if err := p.symbol(";"); err != nil {
				return nil, err
			}
			if _, err := p.expect(tokEOF, ""); err != nil {
				return nil, errAt(p.peek(), "trailing input after end system")
			}
			return sys, nil
		}
	}
}

// parseChannel parses "channel <name> : <behavior> reads|writes <var> ;".
func (p *parser) parseChannel() (*astChannel, error) {
	tok, _ := p.expect(tokKeyword, "channel")
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.symbol(":"); err != nil {
		return nil, err
	}
	beh, err := p.ident()
	if err != nil {
		return nil, err
	}
	dir := p.next()
	if dir.kind != tokKeyword || (dir.text != "reads" && dir.text != "writes") {
		return nil, errAt(dir, "expected 'reads' or 'writes', found %s", dir)
	}
	v, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.symbol(";"); err != nil {
		return nil, err
	}
	return &astChannel{pos: tok, name: name.text, behavior: beh.text, variable: v.text, write: dir.text == "writes"}, nil
}

// parseModule parses "module <name> is <decls> end module ;".
func (p *parser) parseModule() (*astModule, error) {
	if err := p.keyword("module"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.keyword("is"); err != nil {
		return nil, err
	}
	m := &astModule{name: name.text}
	for {
		t := p.peek()
		switch {
		case t.kind == tokKeyword && (t.text == "variable" || t.text == "signal"):
			v, err := p.parseVarDecl()
			if err != nil {
				return nil, err
			}
			m.vars = append(m.vars, v)
		case t.kind == tokKeyword && (t.text == "behavior" || t.text == "process"):
			b, err := p.parseBehavior()
			if err != nil {
				return nil, err
			}
			m.behaviors = append(m.behaviors, b)
		case t.kind == tokKeyword && t.text == "end":
			p.next()
			p.accept(tokKeyword, "module")
			p.accept(tokIdent, name.text)
			if err := p.symbol(";"); err != nil {
				return nil, err
			}
			return m, nil
		default:
			return nil, errAt(t, "expected variable, behavior or end module, found %s", t)
		}
	}
}

// parseVarDecl parses "variable <name> : <type> [:= init] ;".
func (p *parser) parseVarDecl() (*astVar, error) {
	kw := p.next() // variable | signal
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.symbol(":"); err != nil {
		return nil, err
	}
	typ, err := p.parseType()
	if err != nil {
		return nil, err
	}
	v := &astVar{pos: name, name: name.text, isSignal: kw.text == "signal", typ: typ}
	if p.accept(tokSymbol, ":=") {
		v.init, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if err := p.symbol(";"); err != nil {
		return nil, err
	}
	return v, nil
}

// parseType parses bit | boolean | integer | bit_vector(h downto l) |
// array(l to h) of <type>.
func (p *parser) parseType() (*astType, error) {
	defer p.restore(p.depth)
	if err := p.descend(); err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind != tokKeyword {
		return nil, errAt(t, "expected type, found %s", t)
	}
	switch t.text {
	case "bit", "boolean", "integer":
		p.next()
		return &astType{pos: t, kind: t.text}, nil
	case "bit_vector":
		p.next()
		if err := p.symbol("("); err != nil {
			return nil, err
		}
		hi, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.keyword("downto"); err != nil {
			return nil, err
		}
		lo, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.symbol(")"); err != nil {
			return nil, err
		}
		return &astType{pos: t, kind: "bit_vector", hi: hi, lo: lo}, nil
	case "array":
		p.next()
		if err := p.symbol("("); err != nil {
			return nil, err
		}
		lo, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.keyword("to"); err != nil {
			return nil, err
		}
		hi, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.symbol(")"); err != nil {
			return nil, err
		}
		if err := p.keyword("of"); err != nil {
			return nil, err
		}
		elem, err := p.parseType()
		if err != nil {
			return nil, err
		}
		return &astType{pos: t, kind: "array", aLo: lo, aHi: hi, elem: elem}, nil
	}
	return nil, errAt(t, "expected type, found %s", t)
}

// parseBehavior parses
// "behavior <name> [server] is <decls> begin <stmts> end behavior ;".
func (p *parser) parseBehavior() (*astBehavior, error) {
	kw := p.next() // behavior | process
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	b := &astBehavior{pos: kw, name: name.text}
	if p.accept(tokKeyword, "server") {
		b.server = true
	}
	if err := p.keyword("is"); err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokKeyword && (t.text == "variable" || t.text == "signal") {
			v, err := p.parseVarDecl()
			if err != nil {
				return nil, err
			}
			b.vars = append(b.vars, v)
			continue
		}
		if t.kind == tokKeyword && t.text == "procedure" {
			proc, err := p.parseProcedure()
			if err != nil {
				return nil, err
			}
			b.procs = append(b.procs, proc)
			continue
		}
		break
	}
	if err := p.keyword("begin"); err != nil {
		return nil, err
	}
	body, err := p.parseStmts()
	if err != nil {
		return nil, err
	}
	b.body = body
	if err := p.keyword("end"); err != nil {
		return nil, err
	}
	if !p.accept(tokKeyword, "behavior") {
		p.accept(tokKeyword, "process")
	}
	p.accept(tokIdent, name.text)
	if err := p.symbol(";"); err != nil {
		return nil, err
	}
	return b, nil
}

// parseProcedure parses
// "procedure <name> ( params ) is <decls> begin <stmts> end [procedure] ;".
func (p *parser) parseProcedure() (*astProc, error) {
	kw := p.next()
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	proc := &astProc{pos: kw, name: name.text}
	if p.accept(tokSymbol, "(") {
		for !p.accept(tokSymbol, ")") {
			pn, err := p.ident()
			if err != nil {
				return nil, err
			}
			if err := p.symbol(":"); err != nil {
				return nil, err
			}
			mode := "in"
			t := p.peek()
			if t.kind == tokKeyword && (t.text == "in" || t.text == "out" || t.text == "inout") {
				mode = t.text
				p.next()
			}
			typ, err := p.parseType()
			if err != nil {
				return nil, err
			}
			proc.params = append(proc.params, astParam{pos: pn, name: pn.text, mode: mode, typ: typ})
			if !p.accept(tokSymbol, ";") && !p.accept(tokSymbol, ",") {
				if err := p.symbol(")"); err != nil {
					return nil, err
				}
				break
			}
		}
	}
	if err := p.keyword("is"); err != nil {
		return nil, err
	}
	for p.peek().kind == tokKeyword && (p.peek().text == "variable" || p.peek().text == "signal") {
		v, err := p.parseVarDecl()
		if err != nil {
			return nil, err
		}
		proc.vars = append(proc.vars, v)
	}
	if err := p.keyword("begin"); err != nil {
		return nil, err
	}
	body, err := p.parseStmts()
	if err != nil {
		return nil, err
	}
	proc.body = body
	if err := p.keyword("end"); err != nil {
		return nil, err
	}
	p.accept(tokKeyword, "procedure")
	p.accept(tokIdent, name.text)
	if err := p.symbol(";"); err != nil {
		return nil, err
	}
	return proc, nil
}

// parseStmts parses statements until a closing keyword (end, elsif,
// else) is seen.
func (p *parser) parseStmts() ([]astStmt, error) {
	var out []astStmt
	for {
		t := p.peek()
		if t.kind == tokEOF {
			return nil, errAt(t, "unexpected end of input in statement list")
		}
		if t.kind == tokKeyword && (t.text == "end" || t.text == "elsif" || t.text == "else") {
			return out, nil
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
}

func (p *parser) parseStmt() (astStmt, error) {
	defer p.restore(p.depth)
	if err := p.descend(); err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind == tokKeyword {
		switch t.text {
		case "if":
			return p.parseIf()
		case "for":
			return p.parseFor()
		case "while":
			return p.parseWhile()
		case "loop":
			return p.parseLoop()
		case "exit":
			p.next()
			return &astExit{tok: t}, p.symbol(";")
		case "return":
			p.next()
			return &astRet{tok: t}, p.symbol(";")
		case "null":
			p.next()
			return &astNull{tok: t}, p.symbol(";")
		case "wait":
			return p.parseWait()
		}
		return nil, errAt(t, "unexpected %s at start of statement", t)
	}
	// Assignment or procedure call: parse a postfix expression first.
	lhs, err := p.parsePostfix()
	if err != nil {
		return nil, err
	}
	if op := p.peek(); op.kind == tokSymbol && (op.text == ":=" || op.text == "<=") {
		p.next()
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.symbol(";"); err != nil {
			return nil, err
		}
		return &astAssign{tok: t, lhs: lhs, rhs: rhs, signal: op.text == "<="}, nil
	}
	// Procedure call statement: lhs must be name(args) or name.
	switch e := lhs.(type) {
	case *astApply:
		if name, ok := e.fn.(*astName); ok && e.hi == nil {
			if err := p.symbol(";"); err != nil {
				return nil, err
			}
			return &astCall{tok: t, name: name.tok.text, args: e.args}, nil
		}
	case *astName:
		if err := p.symbol(";"); err != nil {
			return nil, err
		}
		return &astCall{tok: t, name: e.tok.text}, nil
	}
	return nil, errAt(p.peek(), "expected ':=', '<=' or procedure call, found %s", p.peek())
}

func (p *parser) parseIf() (astStmt, error) {
	tok := p.next()
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.keyword("then"); err != nil {
		return nil, err
	}
	then, err := p.parseStmts()
	if err != nil {
		return nil, err
	}
	st := &astIf{tok: tok, cond: cond, then: then}
	for p.accept(tokKeyword, "elsif") {
		c, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.keyword("then"); err != nil {
			return nil, err
		}
		body, err := p.parseStmts()
		if err != nil {
			return nil, err
		}
		st.elifs = append(st.elifs, astElif{cond: c, body: body})
	}
	if p.accept(tokKeyword, "else") {
		body, err := p.parseStmts()
		if err != nil {
			return nil, err
		}
		st.els = body
	}
	if err := p.keyword("end"); err != nil {
		return nil, err
	}
	if err := p.keyword("if"); err != nil {
		return nil, err
	}
	return st, p.symbol(";")
}

func (p *parser) parseFor() (astStmt, error) {
	tok := p.next()
	v, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.keyword("in"); err != nil {
		return nil, err
	}
	from, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.keyword("to"); err != nil {
		return nil, err
	}
	to, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.keyword("loop"); err != nil {
		return nil, err
	}
	body, err := p.parseStmts()
	if err != nil {
		return nil, err
	}
	if err := p.endLoop(); err != nil {
		return nil, err
	}
	return &astFor{tok: tok, v: v.text, from: from, to: to, body: body}, nil
}

func (p *parser) parseWhile() (astStmt, error) {
	tok := p.next()
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.keyword("loop"); err != nil {
		return nil, err
	}
	body, err := p.parseStmts()
	if err != nil {
		return nil, err
	}
	if err := p.endLoop(); err != nil {
		return nil, err
	}
	return &astWhile{tok: tok, cond: cond, body: body}, nil
}

func (p *parser) parseLoop() (astStmt, error) {
	tok := p.next()
	body, err := p.parseStmts()
	if err != nil {
		return nil, err
	}
	if err := p.endLoop(); err != nil {
		return nil, err
	}
	return &astLoop{tok: tok, body: body}, nil
}

func (p *parser) endLoop() error {
	if err := p.keyword("end"); err != nil {
		return err
	}
	if err := p.keyword("loop"); err != nil {
		return err
	}
	return p.symbol(";")
}

func (p *parser) parseWait() (astStmt, error) {
	tok := p.next()
	w := &astWait{tok: tok}
	if p.accept(tokKeyword, "on") {
		for {
			n, err := p.ident()
			if err != nil {
				return nil, err
			}
			w.on = append(w.on, n)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if p.accept(tokKeyword, "until") {
		c, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		w.until = c
	}
	if p.accept(tokKeyword, "for") {
		d, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		w.dur = d
	}
	return w, p.symbol(";")
}

// ---- expressions ----

// parseExpr parses with precedence: or < and < relational < additive
// (+, -, &) < multiplicative (*, /, mod, sll, srl) < unary < postfix.
func (p *parser) parseExpr() (astExpr, error) {
	defer p.restore(p.depth)
	if err := p.descend(); err != nil {
		return nil, err
	}
	return p.parseOr()
}

func (p *parser) parseOr() (astExpr, error) {
	defer p.restore(p.depth)
	x, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokKeyword && (t.text == "or" || t.text == "xor") {
			p.next()
			if err := p.descend(); err != nil {
				return nil, err
			}
			y, err := p.parseAnd()
			if err != nil {
				return nil, err
			}
			x = &astBinary{op: t.text, x: x, y: y, tok: t}
			continue
		}
		return x, nil
	}
}

func (p *parser) parseAnd() (astExpr, error) {
	defer p.restore(p.depth)
	x, err := p.parseRel()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokKeyword && p.peek().text == "and" {
		t := p.next()
		if err := p.descend(); err != nil {
			return nil, err
		}
		y, err := p.parseRel()
		if err != nil {
			return nil, err
		}
		x = &astBinary{op: "and", x: x, y: y, tok: t}
	}
	return x, nil
}

func (p *parser) parseRel() (astExpr, error) {
	x, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind == tokSymbol {
		switch t.text {
		case "=", "/=", "<", "<=", ">", ">=":
			p.next()
			y, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return &astBinary{op: t.text, x: x, y: y, tok: t}, nil
		}
	}
	return x, nil
}

func (p *parser) parseAdd() (astExpr, error) {
	defer p.restore(p.depth)
	x, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokSymbol && (t.text == "+" || t.text == "-" || t.text == "&") {
			p.next()
			if err := p.descend(); err != nil {
				return nil, err
			}
			y, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			x = &astBinary{op: t.text, x: x, y: y, tok: t}
			continue
		}
		return x, nil
	}
}

func (p *parser) parseMul() (astExpr, error) {
	defer p.restore(p.depth)
	x, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		isMul := (t.kind == tokSymbol && (t.text == "*" || t.text == "/")) ||
			(t.kind == tokKeyword && (t.text == "mod" || t.text == "sll" || t.text == "srl"))
		if !isMul {
			return x, nil
		}
		p.next()
		if err := p.descend(); err != nil {
			return nil, err
		}
		y, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		x = &astBinary{op: t.text, x: x, y: y, tok: t}
	}
}

func (p *parser) parseUnary() (astExpr, error) {
	defer p.restore(p.depth)
	if err := p.descend(); err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind == tokKeyword && t.text == "not" {
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &astUnary{op: "not", x: x, tok: t}, nil
	}
	if t.kind == tokSymbol && t.text == "-" {
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &astUnary{op: "-", x: x, tok: t}, nil
	}
	return p.parsePostfix()
}

// parsePostfix parses a primary followed by application/field suffixes.
func (p *parser) parsePostfix() (astExpr, error) {
	defer p.restore(p.depth)
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		switch {
		case t.kind == tokSymbol && t.text == "(":
			p.next()
			if err := p.descend(); err != nil {
				return nil, err
			}
			first, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if p.accept(tokKeyword, "downto") {
				lo, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				if err := p.symbol(")"); err != nil {
					return nil, err
				}
				x = &astApply{fn: x, hi: first, lo: lo}
				continue
			}
			args := []astExpr{first}
			for p.accept(tokSymbol, ",") {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
			}
			if err := p.symbol(")"); err != nil {
				return nil, err
			}
			x = &astApply{fn: x, args: args}
		case t.kind == tokSymbol && t.text == ".":
			p.next()
			if err := p.descend(); err != nil {
				return nil, err
			}
			f, err := p.ident()
			if err != nil {
				return nil, err
			}
			x = &astField{x: x, field: f.text, tok: t}
		default:
			return x, nil
		}
	}
}

func (p *parser) parsePrimary() (astExpr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.next()
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, errAt(t, "invalid number %q", t.text)
		}
		return &astNum{tok: t, v: v}, nil
	case tokBitLit:
		p.next()
		return &astBit{tok: t, v: t.text}, nil
	case tokVecLit:
		p.next()
		return &astVec{tok: t, v: t.text}, nil
	case tokHexVecLit:
		p.next()
		return &astVec{tok: t, v: t.text, hex: true}, nil
	case tokIdent:
		p.next()
		return &astName{tok: t}, nil
	case tokKeyword:
		switch t.text {
		case "true", "false":
			p.next()
			return &astBool{tok: t, v: t.text == "true"}, nil
		}
	case tokSymbol:
		if t.text == "(" {
			p.next()
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return x, p.symbol(")")
		}
	}
	return nil, errAt(t, "expected expression, found %s", t)
}
