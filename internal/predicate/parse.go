package predicate

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Parse compiles the expression language into a Cond. Syntax:
//
//	cond  := or
//	or    := and ( "||" and )*
//	and   := unary ( "&&" unary )*
//	unary := "!" unary | cmp
//	cmp   := sum ( (">"|">="|"<"|"<="|"=="|"!=") sum )?
//	sum   := prod ( ("+"|"-") prod )*
//	prod  := neg ( ("*"|"/") neg )*
//	neg   := "-" neg | prim
//	prim  := NUMBER | IDENT "@" NUMBER | ("sum"|"avg"|"min"|"max") "(" IDENT ")"
//	       | "(" cond-or-expr ")" | "true" | "false"
//
// A bare comparison-free expression is a type error (predicates are
// boolean); parenthesized subterms may be either numeric or boolean and
// are type-checked where used. Examples from the paper:
//
//	x@1 == 5 && y@2 > 7            (conjunctive ψ of §3.1.2.a)
//	sum(x) - sum(y) > 200          (relational φ of §5)
//	temp@3 > 30 && motion@3 == 1   (smart-office rule of §3.3)
func Parse(src string) (Cond, error) {
	p := &parser{src: src}
	p.next()
	node, err := p.parseOr()
	if p.err != nil {
		err = p.err // a bad character or number ended the token stream early
	}
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, p.errorf("unexpected %q after predicate", p.tok.text)
	}
	c, ok := node.(Cond)
	if !ok {
		return nil, fmt.Errorf("predicate: expression %q is numeric, not boolean", src)
	}
	return c, nil
}

// MustParse is Parse that panics on error, for literals in examples and
// tests.
func MustParse(src string) Cond {
	c, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return c
}

type tokKind int

const (
	tokEOF tokKind = iota
	tokNumber
	tokIdent
	tokOp // one of + - * / ( ) @ && || ! > >= < <= == !=
)

type token struct {
	kind tokKind
	text string
	pos  int
	val  float64
}

// maxNesting bounds how deeply parentheses, "!" and unary "-" may nest. The
// parser recurses once per level, and an input nested past the goroutine
// stack's limit would crash the process, which no recover can catch. Every
// predicate in the repository nests a few levels. A flat chain such as
// a + b + c prints with one parenthesis per operator, so the String form of
// a chain longer than this is refused too.
const maxNesting = 1000

type parser struct {
	src   string
	off   int
	tok   token
	err   error
	depth int // nesting levels entered, see nest
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("predicate: %s at offset %d in %q",
		fmt.Sprintf(format, args...), p.tok.pos, p.src)
}

func (p *parser) next() {
	for p.off < len(p.src) && unicode.IsSpace(rune(p.src[p.off])) {
		p.off++
	}
	start := p.off
	if p.off >= len(p.src) {
		p.tok = token{kind: tokEOF, pos: start}
		return
	}
	c := p.src[p.off]
	switch {
	case c >= '0' && c <= '9' || c == '.':
		j := p.off
		for j < len(p.src) && (p.src[j] >= '0' && p.src[j] <= '9' || p.src[j] == '.') {
			j++
		}
		text := p.src[p.off:j]
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			p.err = fmt.Errorf("predicate: bad number %q at offset %d", text, start)
		}
		p.off = j
		p.tok = token{kind: tokNumber, text: text, pos: start, val: v}
	case unicode.IsLetter(rune(c)) || c == '_':
		j := p.off
		for j < len(p.src) && (unicode.IsLetter(rune(p.src[j])) ||
			unicode.IsDigit(rune(p.src[j])) || p.src[j] == '_') {
			j++
		}
		p.tok = token{kind: tokIdent, text: p.src[p.off:j], pos: start}
		p.off = j
	default:
		two := ""
		if p.off+1 < len(p.src) {
			two = p.src[p.off : p.off+2]
		}
		switch two {
		case "&&", "||", ">=", "<=", "==", "!=":
			p.tok = token{kind: tokOp, text: two, pos: start}
			p.off += 2
			return
		}
		switch c {
		case '+', '-', '*', '/', '(', ')', '@', '!', '>', '<':
			p.tok = token{kind: tokOp, text: string(c), pos: start}
			p.off++
		default:
			p.err = fmt.Errorf("predicate: unexpected character %q at offset %d", c, start)
			p.tok = token{kind: tokEOF, pos: start}
		}
	}
}

// nest runs parse one nesting level deeper, or fails past maxNesting.
func (p *parser) nest(parse func() (node, error)) (node, error) {
	if p.depth == maxNesting {
		return nil, p.errorf("nested deeper than %d levels", maxNesting)
	}
	p.depth++
	defer func() { p.depth-- }()
	return parse()
}

func (p *parser) accept(text string) bool {
	if p.tok.kind == tokOp && p.tok.text == text {
		p.next()
		return true
	}
	return false
}

// node is either an Expr or a Cond; operators type-check their operands.
type node any

func asExpr(n node, p *parser) (Expr, error) {
	if e, ok := n.(Expr); ok {
		return e, nil
	}
	return nil, p.errorf("expected a numeric expression, found boolean %v", n)
}

func asCond(n node, p *parser) (Cond, error) {
	if c, ok := n.(Cond); ok {
		return c, nil
	}
	return nil, p.errorf("expected a boolean predicate, found numeric %v", n)
}

func (p *parser) parseOr() (node, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokOp && p.tok.text == "||" {
		p.next()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l, err := asCond(left, p)
		if err != nil {
			return nil, err
		}
		r, err := asCond(right, p)
		if err != nil {
			return nil, err
		}
		left = Or{L: l, R: r}
	}
	return left, nil
}

func (p *parser) parseAnd() (node, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokOp && p.tok.text == "&&" {
		p.next()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l, err := asCond(left, p)
		if err != nil {
			return nil, err
		}
		r, err := asCond(right, p)
		if err != nil {
			return nil, err
		}
		left = And{L: l, R: r}
	}
	return left, nil
}

func (p *parser) parseUnary() (node, error) {
	if p.accept("!") {
		inner, err := p.nest(p.parseUnary)
		if err != nil {
			return nil, err
		}
		c, err := asCond(inner, p)
		if err != nil {
			return nil, err
		}
		return Not{X: c}, nil
	}
	return p.parseCmp()
}

var cmpOps = map[string]CmpOp{
	">": CmpGT, ">=": CmpGE, "<": CmpLT, "<=": CmpLE, "==": CmpEQ, "!=": CmpNE,
}

func (p *parser) parseCmp() (node, error) {
	left, err := p.parseSum()
	if err != nil {
		return nil, err
	}
	if p.tok.kind == tokOp {
		if op, ok := cmpOps[p.tok.text]; ok {
			p.next()
			right, err := p.parseSum()
			if err != nil {
				return nil, err
			}
			l, err := asExpr(left, p)
			if err != nil {
				return nil, err
			}
			r, err := asExpr(right, p)
			if err != nil {
				return nil, err
			}
			return Cmp{Op: op, L: l, R: r}, nil
		}
	}
	return left, nil
}

func (p *parser) parseSum() (node, error) {
	left, err := p.parseProd()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokOp && (p.tok.text == "+" || p.tok.text == "-") {
		op := OpAdd
		if p.tok.text == "-" {
			op = OpSub
		}
		p.next()
		right, err := p.parseProd()
		if err != nil {
			return nil, err
		}
		l, err := asExpr(left, p)
		if err != nil {
			return nil, err
		}
		r, err := asExpr(right, p)
		if err != nil {
			return nil, err
		}
		left = Bin{Op: op, L: l, R: r}
	}
	return left, nil
}

func (p *parser) parseProd() (node, error) {
	left, err := p.parseNeg()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokOp && (p.tok.text == "*" || p.tok.text == "/") {
		op := OpMul
		if p.tok.text == "/" {
			op = OpDiv
		}
		p.next()
		right, err := p.parseNeg()
		if err != nil {
			return nil, err
		}
		l, err := asExpr(left, p)
		if err != nil {
			return nil, err
		}
		r, err := asExpr(right, p)
		if err != nil {
			return nil, err
		}
		left = Bin{Op: op, L: l, R: r}
	}
	return left, nil
}

func (p *parser) parseNeg() (node, error) {
	if p.accept("-") {
		inner, err := p.nest(p.parseNeg)
		if err != nil {
			return nil, err
		}
		e, err := asExpr(inner, p)
		if err != nil {
			return nil, err
		}
		return Neg{X: e}, nil
	}
	return p.parsePrim()
}

var aggOps = map[string]AggOp{"sum": AggSum, "avg": AggAvg, "min": AggMin, "max": AggMax}

func (p *parser) parsePrim() (node, error) {
	if p.err != nil {
		return nil, p.err
	}
	switch p.tok.kind {
	case tokNumber:
		v := p.tok.val
		p.next()
		return Const(v), nil
	case tokIdent:
		name := p.tok.text
		p.next()
		switch strings.ToLower(name) {
		case "true":
			return FuncCond{F: func(State) bool { return true }, Desc: "true"}, nil
		case "false":
			return FuncCond{F: func(State) bool { return false }, Desc: "false"}, nil
		}
		if op, isAgg := aggOps[strings.ToLower(name)]; isAgg && p.tok.kind == tokOp && p.tok.text == "(" {
			p.next()
			if p.tok.kind != tokIdent {
				return nil, p.errorf("aggregate %s needs a variable name", name)
			}
			varName := p.tok.text
			p.next()
			if !p.accept(")") {
				return nil, p.errorf("missing ) after aggregate")
			}
			return Agg{Op: op, Name: varName}, nil
		}
		if !p.accept("@") {
			return nil, p.errorf("variable %q needs a process: %s@<proc>", name, name)
		}
		if p.tok.kind != tokNumber {
			return nil, p.errorf("expected process index after %s@", name)
		}
		proc := int(p.tok.val)
		if float64(proc) != p.tok.val || proc < 0 {
			return nil, p.errorf("process index must be a non-negative integer")
		}
		p.next()
		return Var{Proc: proc, Name: name}, nil
	case tokOp:
		if p.accept("(") {
			inner, err := p.nest(p.parseOr)
			if err != nil {
				return nil, err
			}
			if !p.accept(")") {
				return nil, p.errorf("missing )")
			}
			return inner, nil
		}
	}
	return nil, p.errorf("unexpected %q", p.tok.text)
}
