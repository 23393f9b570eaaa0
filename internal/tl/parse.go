package tl

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"pervasive/internal/sim"
)

// Parse compiles a formula from text. Grammar (precedence low → high):
//
//	formula := until ( "->" formula )?                 (right assoc)
//	until   := or ( "U" or )*
//	or      := and ( "||" and )*
//	and     := unary ( "&&" unary )*
//	unary   := "!" unary | temporal
//	temporal:= ("F"|"G"|"O"|"H") window? unary | prim
//	window  := "[" dur "," (dur|"inf") "]"
//	prim    := IDENT | "(" formula ")" | "true" | "false"
//	dur     := NUMBER ("us"|"ms"|"s"|"m"|"h")?         (default seconds)
//
// Examples:
//
//	G(occupied -> F[0,5s] alarm)     response within 5 seconds
//	G[0,1m] !overcap                 safety over the first minute
//	hot U cooled                     untimed until
//	H[0,10s] door_closed             past: closed for the last 10 s
func Parse(src string) (Formula, error) {
	p := &tlParser{src: src}
	p.next()
	f, err := p.parseFormula()
	if err != nil {
		return nil, err
	}
	if p.tok != "" {
		return nil, p.errorf("unexpected %q after formula", p.tok)
	}
	return f, nil
}

// MustParse is Parse that panics on error.
func MustParse(src string) Formula {
	f, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return f
}

// maxNesting bounds how deeply parentheses, "->", "!" and the temporal
// operators may nest. The parser recurses once per level, and an input
// nested past the goroutine stack's limit would crash the process, which no
// recover can catch. A flat chain such as a && b && c prints with one
// parenthesis per operator, so the String form of a chain longer than this
// is refused too.
const maxNesting = 1000

// maxDuration bounds a window bound at 2⁵³ µs (about 285 years): below it
// the float arithmetic of parseDur and Window.String is exact to the µs, so
// a printed window reads back as itself.
const maxDuration = 1 << 53

type tlParser struct {
	src   string
	off   int
	tok   string // current token ("" = EOF)
	pos   int
	depth int // nesting levels entered, see nest
}

func (p *tlParser) errorf(format string, args ...any) error {
	return fmt.Errorf("tl: %s at offset %d in %q",
		fmt.Sprintf(format, args...), p.pos, p.src)
}

func (p *tlParser) next() {
	for p.off < len(p.src) && unicode.IsSpace(rune(p.src[p.off])) {
		p.off++
	}
	p.pos = p.off
	if p.off >= len(p.src) {
		p.tok = ""
		return
	}
	c := p.src[p.off]
	switch {
	case unicode.IsLetter(rune(c)) || c == '_':
		j := p.off
		for j < len(p.src) && (unicode.IsLetter(rune(p.src[j])) ||
			unicode.IsDigit(rune(p.src[j])) || p.src[j] == '_') {
			j++
		}
		p.tok = p.src[p.off:j]
		p.off = j
	case c >= '0' && c <= '9' || c == '.':
		j := p.off
		for j < len(p.src) && (p.src[j] >= '0' && p.src[j] <= '9' || p.src[j] == '.') {
			j++
		}
		p.tok = p.src[p.off:j]
		p.off = j
	default:
		if p.off+1 < len(p.src) {
			two := p.src[p.off : p.off+2]
			if two == "&&" || two == "||" || two == "->" {
				p.tok = two
				p.off += 2
				return
			}
		}
		p.tok = p.src[p.off : p.off+1] // the byte itself; string(c) would encode it as a rune
		p.off++
	}
}

// nest runs parse one nesting level deeper, or fails past maxNesting.
func (p *tlParser) nest(parse func() (Formula, error)) (Formula, error) {
	if p.depth == maxNesting {
		return nil, p.errorf("nested deeper than %d levels", maxNesting)
	}
	p.depth++
	defer func() { p.depth-- }()
	return parse()
}

func (p *tlParser) accept(tok string) bool {
	if p.tok == tok {
		p.next()
		return true
	}
	return false
}

func (p *tlParser) parseFormula() (Formula, error) {
	left, err := p.parseUntil()
	if err != nil {
		return nil, err
	}
	if p.accept("->") {
		right, err := p.nest(p.parseFormula) // right associative
		if err != nil {
			return nil, err
		}
		return Implies{L: left, R: right}, nil
	}
	return left, nil
}

func (p *tlParser) parseUntil() (Formula, error) {
	left, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	for p.tok == "U" {
		p.next()
		right, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		left = Until{L: left, R: right}
	}
	return left, nil
}

func (p *tlParser) parseOr() (Formula, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept("||") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = Or{L: left, R: right}
	}
	return left, nil
}

func (p *tlParser) parseAnd() (Formula, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.accept("&&") {
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = And{L: left, R: right}
	}
	return left, nil
}

var temporalOps = map[string]bool{"F": true, "G": true, "O": true, "H": true}

func (p *tlParser) parseUnary() (Formula, error) {
	if p.accept("!") {
		f, err := p.nest(p.parseUnary)
		if err != nil {
			return nil, err
		}
		return Not{F: f}, nil
	}
	if temporalOps[p.tok] {
		op := p.tok
		p.next()
		w := Window{Lo: 0, Hi: Unbounded}
		if p.tok == "[" {
			var err error
			w, err = p.parseWindow()
			if err != nil {
				return nil, err
			}
		}
		inner, err := p.nest(p.parseUnary)
		if err != nil {
			return nil, err
		}
		switch op {
		case "F":
			return Eventually{W: w, F: inner}, nil
		case "G":
			return Always{W: w, F: inner}, nil
		case "O":
			return Once{W: w, F: inner}, nil
		default:
			return Historically{W: w, F: inner}, nil
		}
	}
	return p.parsePrim()
}

func (p *tlParser) parseWindow() (Window, error) {
	if !p.accept("[") {
		return Window{}, p.errorf("expected [")
	}
	lo, err := p.parseDur()
	if err != nil {
		return Window{}, err
	}
	if !p.accept(",") {
		return Window{}, p.errorf("expected , in window")
	}
	var hi sim.Duration
	if p.tok == "inf" {
		hi = Unbounded
		p.next()
	} else {
		hi, err = p.parseDur()
		if err != nil {
			return Window{}, err
		}
		if hi < lo {
			return Window{}, p.errorf("window upper bound below lower bound")
		}
	}
	if !p.accept("]") {
		return Window{}, p.errorf("expected ] in window")
	}
	return Window{Lo: lo, Hi: hi}, nil
}

var durUnits = map[string]sim.Duration{
	"us": sim.Microsecond, "µs": sim.Microsecond, "ms": sim.Millisecond,
	"s": sim.Second, "m": sim.Minute, "h": sim.Hour,
}

func (p *tlParser) parseDur() (sim.Duration, error) {
	if p.tok == "" {
		return 0, p.errorf("expected duration")
	}
	v, err := strconv.ParseFloat(p.tok, 64)
	if err != nil {
		return 0, p.errorf("bad duration %q", p.tok)
	}
	tok := p.tok
	p.next()
	unit := sim.Second
	if u, ok := durUnits[strings.ToLower(p.tok)]; ok {
		unit = u
		p.next()
	}
	d := v*float64(unit) + 0.5
	if !(d >= 0 && d <= maxDuration) { // NaN, ±Inf and what int64 cannot hold included
		return 0, p.errorf("bad duration %q", tok)
	}
	return sim.Duration(d), nil
}

func (p *tlParser) parsePrim() (Formula, error) {
	switch {
	case p.tok == "(":
		p.next()
		f, err := p.nest(p.parseFormula)
		if err != nil {
			return nil, err
		}
		if !p.accept(")") {
			return nil, p.errorf("missing )")
		}
		return f, nil
	case p.tok == "":
		return nil, p.errorf("unexpected end of formula")
	case unicode.IsLetter(rune(p.tok[0])) || p.tok[0] == '_':
		name := p.tok
		p.next()
		switch name {
		case "true":
			return Const(true), nil
		case "false":
			return Const(false), nil
		}
		return Atom(name), nil
	}
	return nil, p.errorf("unexpected %q", p.tok)
}
