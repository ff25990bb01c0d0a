// Package hdl implements the textual front end of the flow: a lexer,
// recursive-descent parser and elaborator for a SpecSyn-flavored
// specification language (a VHDL subset extended with system/module/
// behavior structure), producing specification IR (internal/spec).
//
// A small example:
//
//	system PQ is
//	  module comp1 is
//	    behavior P is
//	      variable AD : integer;
//	    begin
//	      X <= 32;
//	      MEM(AD) := X + 7;
//	    end behavior;
//	  end module;
//	  module comp2 is
//	    variable X : bit_vector(15 downto 0);
//	    variable MEM : array(0 to 63) of bit_vector(15 downto 0);
//	  end module;
//	end system;
//
// Module-level variables are visible to every behavior (the paper's
// processes name remote variables directly); partitioning derives the
// channels implied by the cross-module references.
package hdl

import (
	"fmt"
	"strings"
)

// tokKind enumerates token kinds.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokBitLit    // '0' or '1'
	tokVecLit    // "0101"
	tokHexVecLit // X"0A"
	tokSymbol
)

// token is one lexeme. Its text is a substring of the source, except
// that keywords are spelled in lower case and underscores are dropped
// from numbers and bit-vector literals. Its position is the byte offset
// of its first byte; line and column are derived from that only when an
// error is reported.
type token struct {
	text string
	off  int
	kind tokKind
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokBitLit:
		return fmt.Sprintf("'%s'", t.text)
	}
	return fmt.Sprintf("%q", t.text)
}

// keywords maps each keyword to itself, so a lookup with a case-folded
// key yields the lower-case spelling without building a string.
var keywords = func() map[string]string {
	m := map[string]string{}
	for _, k := range []string{
		"system", "module", "behavior", "process",
		"variable", "signal", "procedure", "channel",
		"server", "is", "begin", "end",
		"if", "then", "elsif", "else",
		"for", "in", "to", "downto", "loop",
		"while", "exit", "return", "null",
		"wait", "on", "until",
		"and", "or", "xor", "not", "mod",
		"bit", "bit_vector", "integer", "boolean",
		"array", "of", "true", "false",
		"out", "inout", "reads", "writes",
		"sll", "srl",
	} {
		m[k] = k
	}
	return m
}()

// maxKeywordLen is the length of the longest keyword, "bit_vector".
const maxKeywordLen = 10

// keyword reports whether word is a keyword in any letter case, and
// returns its lower-case spelling. It folds case in a stack buffer.
func keyword(word string) (string, bool) {
	if len(word) > maxKeywordLen {
		return "", false
	}
	var buf [maxKeywordLen]byte
	for i := 0; i < len(word); i++ {
		c := word[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		buf[i] = c
	}
	kw, ok := keywords[string(buf[:len(word)])]
	return kw, ok
}

// Error is a front-end diagnostic with position information.
type Error struct {
	Line, Col int
	Msg       string
	off       int // byte offset; Parse sets Line and Col from it
}

func (e *Error) Error() string {
	return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg)
}

func errAt(t token, format string, args ...any) *Error {
	return &Error{off: t.off, Msg: fmt.Sprintf(format, args...)}
}

// lineCol converts a byte offset into a 1-based line and a 1-based
// column counted in bytes.
func lineCol(src string, off int) (line, col int) {
	before := src[:off]
	return strings.Count(before, "\n") + 1, off - strings.LastIndexByte(before, '\n')
}

// lexer produces tokens one at a time on the parser's demand.
// Comments run from "--" to end of line.
type lexer struct {
	src string
	pos int    // offset of the next unread byte
	err *Error // the first lexical error; every later token is EOF
}

func (lx *lexer) fail(off int, format string, args ...any) token {
	lx.err = &Error{off: off, Msg: fmt.Sprintf(format, args...)}
	lx.pos = len(lx.src)
	return token{kind: tokEOF, off: off}
}

// next scans the token that starts at or after lx.pos.
func (lx *lexer) next() token {
	src := lx.src
	i := lx.pos
	for i < len(src) {
		if c := src[i]; c == ' ' || c == '\t' || c == '\r' || c == '\n' {
			i++
		} else if c == '-' && i+1 < len(src) && src[i+1] == '-' {
			if nl := strings.IndexByte(src[i:], '\n'); nl >= 0 {
				i += nl + 1
			} else {
				i = len(src)
			}
		} else {
			break
		}
	}
	lx.pos = i
	if i == len(src) {
		return token{kind: tokEOF, off: i}
	}
	start := i
	c := src[i]
	switch {
	case isLetter(c):
		for i++; i < len(src) && (isLetter(src[i]) || isDigit(src[i])); i++ {
		}
		word := src[start:i]
		if (c == 'x' || c == 'X') && i == start+1 && i < len(src) && src[i] == '"' {
			// X"AB" hex bit-vector literal
			end := strings.IndexByte(src[i+1:], '"')
			if end < 0 {
				return lx.fail(start, "unterminated hex literal")
			}
			lx.pos = i + 1 + end + 1
			return token{kind: tokHexVecLit, text: src[i+1 : i+1+end], off: start}
		}
		lx.pos = i
		if kw, ok := keyword(word); ok {
			return token{kind: tokKeyword, text: kw, off: start}
		}
		return token{kind: tokIdent, text: word, off: start}
	case isDigit(c):
		for i++; i < len(src) && (isDigit(src[i]) || src[i] == '_'); i++ {
		}
		lx.pos = i
		return token{kind: tokNumber, text: strings.ReplaceAll(src[start:i], "_", ""), off: start}
	case c == '\'':
		if i+2 < len(src) && (src[i+1] == '0' || src[i+1] == '1') && src[i+2] == '\'' {
			lx.pos = i + 3
			return token{kind: tokBitLit, text: src[i+1 : i+2], off: start}
		}
		return lx.fail(start, "invalid bit literal (expected '0' or '1')")
	case c == '"':
		end := strings.IndexByte(src[i+1:], '"')
		if end < 0 {
			return lx.fail(start, "unterminated string literal")
		}
		lit := src[i+1 : i+1+end]
		for j := 0; j < len(lit); j++ {
			if b := lit[j]; b != '0' && b != '1' && b != '_' {
				return lx.fail(start, "invalid bit-vector literal %q", lit)
			}
		}
		lx.pos = i + 1 + end + 1
		return token{kind: tokVecLit, text: strings.ReplaceAll(lit, "_", ""), off: start}
	}
	if i+1 < len(src) {
		switch two := src[i : i+2]; two {
		case ":=", "<=", ">=", "/=", "=>", "**":
			lx.pos = i + 2
			return token{kind: tokSymbol, text: two, off: start}
		}
	}
	switch c {
	case '(', ')', ';', ':', ',', '.', '&', '+', '-', '*', '/', '=', '<', '>':
		lx.pos = i + 1
		return token{kind: tokSymbol, text: src[i : i+1], off: start}
	}
	return lx.fail(start, "unexpected character %q", c)
}

func isLetter(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
