package query

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"systolicdb/internal/cells"
	"systolicdb/internal/join"
	"systolicdb/internal/relation"
)

// Parse builds a plan from a small textual algebra, used by the command-
// line tools:
//
//	scan(A)
//	intersect(e, e)        difference(e, e)        union(e, e)
//	dedup(e)               project(e, 0, 2)
//	join(e, e, 0=0)        join(e, e, 0=1, 1=0)    theta(e, e, 0>1)
//	divide(e, e, quot=0, div=1, by=0)              (multi-col: quot=0+1)
//	select(e, 0<5)         select(e, 0>=2, 1=3)
//
// Whitespace is insignificant. Column references are 0-based indices;
// select constants are integers (encoded elements).
func Parse(input string) (Node, error) {
	p := &parser{src: input}
	n, err := p.expr()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("query: trailing input at offset %d: %q", p.pos, p.src[p.pos:])
	}
	return n, nil
}

type parser struct {
	src string
	pos int
}

func (p *parser) errf(format string, args ...any) error {
	return p.errAt(p.pos, format, args...)
}

// errAt reports an error at an explicit offset, for productions that have
// already consumed part of a malformed token.
func (p *parser) errAt(offset int, format string, args ...any) error {
	return fmt.Errorf("query: offset %d: %s", offset, fmt.Sprintf(format, args...))
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) && unicode.IsSpace(rune(p.src[p.pos])) {
		p.pos++
	}
}

func (p *parser) peek() byte {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return 0
	}
	return p.src[p.pos]
}

func (p *parser) consume(c byte) error {
	if p.peek() != c {
		return p.errf("expected %q", string(c))
	}
	p.pos++
	return nil
}

func (p *parser) ident() (string, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) {
		c := rune(p.src[p.pos])
		if unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_' {
			p.pos++
			continue
		}
		break
	}
	if p.pos == start {
		return "", p.errf("expected identifier")
	}
	return p.src[start:p.pos], nil
}

func (p *parser) number() (int64, error) {
	p.skipSpace()
	start := p.pos
	if p.pos < len(p.src) && (p.src[p.pos] == '-' || p.src[p.pos] == '+') {
		p.pos++
	}
	digits := p.pos
	for p.pos < len(p.src) && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
		p.pos++
	}
	if p.pos == digits {
		// Report at the number's start, not past a consumed bare sign.
		return 0, p.errAt(start, "expected number")
	}
	v, err := strconv.ParseInt(p.src[start:p.pos], 10, 64)
	if err != nil {
		return 0, p.errAt(start, "bad number %q", p.src[start:p.pos])
	}
	if relation.Element(v) == relation.Null {
		return 0, p.errAt(start, "constant %d is the reserved null element and cannot appear in a plan", v)
	}
	return v, nil
}

// op parses one comparison operator.
func (p *parser) op() (cells.Op, error) {
	p.skipSpace()
	two := ""
	if p.pos+1 < len(p.src) {
		two = p.src[p.pos : p.pos+2]
	}
	switch two {
	case "!=":
		p.pos += 2
		return cells.NE, nil
	case "<=":
		p.pos += 2
		return cells.LE, nil
	case ">=":
		p.pos += 2
		return cells.GE, nil
	}
	switch p.peek() {
	case '=':
		p.pos++
		return cells.EQ, nil
	case '<':
		p.pos++
		return cells.LT, nil
	case '>':
		p.pos++
		return cells.GT, nil
	}
	return 0, p.errf("expected comparison operator")
}

func (p *parser) expr() (Node, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.consume('('); err != nil {
		return nil, err
	}
	var node Node
	switch strings.ToLower(name) {
	case "scan":
		rel, err := p.ident()
		if err != nil {
			return nil, err
		}
		node = Scan{Name: rel}

	case "intersect", "difference", "union", "join", "theta", "divide":
		l, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.consume(','); err != nil {
			return nil, err
		}
		r, err := p.expr()
		if err != nil {
			return nil, err
		}
		switch strings.ToLower(name) {
		case "intersect":
			node = Intersect{L: l, R: r}
		case "difference":
			node = Difference{L: l, R: r}
		case "union":
			node = Union{L: l, R: r}
		case "join":
			spec, err := p.joinSpec(false)
			if err != nil {
				return nil, err
			}
			node = Join{L: l, R: r, Spec: spec}
		case "theta":
			spec, err := p.joinSpec(true)
			if err != nil {
				return nil, err
			}
			node = Join{L: l, R: r, Spec: spec}
		case "divide":
			quot, div, by, err := p.divideSpec()
			if err != nil {
				return nil, err
			}
			node = Divide{L: l, R: r, AQuot: quot, ADiv: div, BCols: by}
		}

	case "dedup":
		child, err := p.expr()
		if err != nil {
			return nil, err
		}
		node = Dedup{Child: child}

	case "project":
		child, err := p.expr()
		if err != nil {
			return nil, err
		}
		var cols []int
		for p.peek() == ',' {
			p.pos++
			c, err := p.number()
			if err != nil {
				return nil, err
			}
			cols = append(cols, int(c))
		}
		if len(cols) == 0 {
			return nil, p.errf("project needs at least one column")
		}
		node = Project{Child: child, Cols: cols}

	case "select":
		child, err := p.expr()
		if err != nil {
			return nil, err
		}
		var q relation.Query
		for p.peek() == ',' {
			p.pos++
			col, err := p.number()
			if err != nil {
				return nil, err
			}
			op, err := p.op()
			if err != nil {
				return nil, err
			}
			val, err := p.number()
			if err != nil {
				return nil, err
			}
			q = append(q, relation.Predicate{Col: int(col), Op: op, Value: relation.Element(val)})
		}
		if len(q) == 0 {
			return nil, p.errf("select needs at least one predicate")
		}
		node = Select{Child: child, Query: q}

	default:
		return nil, p.errf("unknown operator %q", name)
	}
	if err := p.consume(')'); err != nil {
		return nil, err
	}
	return node, nil
}

// joinSpec parses ", 0=0" pairs (equi) or ", 0>1" (θ) clauses.
func (p *parser) joinSpec(theta bool) (Spec, error) {
	var spec Spec
	for p.peek() == ',' {
		p.pos++
		a, err := p.number()
		if err != nil {
			return spec, err
		}
		op, err := p.op()
		if err != nil {
			return spec, err
		}
		if !theta && op != cells.EQ {
			return spec, p.errf("join accepts only '='; use theta(...) for %v", op)
		}
		b, err := p.number()
		if err != nil {
			return spec, err
		}
		spec.ACols = append(spec.ACols, int(a))
		spec.BCols = append(spec.BCols, int(b))
		spec.Ops = append(spec.Ops, op)
	}
	if len(spec.ACols) == 0 {
		return spec, p.errf("join needs at least one column pair")
	}
	return spec, nil
}

// divideSpec parses ", quot=0[+1], div=1, by=0".
func (p *parser) divideSpec() (quot, div, by []int, err error) {
	groups := map[string]*[]int{"quot": &quot, "div": &div, "by": &by}
	for p.peek() == ',' {
		p.pos++
		key, err := p.ident()
		if err != nil {
			return nil, nil, nil, err
		}
		dst, ok := groups[strings.ToLower(key)]
		if !ok {
			return nil, nil, nil, p.errf("unknown divide group %q (want quot, div, by)", key)
		}
		if err := p.consume('='); err != nil {
			return nil, nil, nil, err
		}
		for {
			c, err := p.number()
			if err != nil {
				return nil, nil, nil, err
			}
			*dst = append(*dst, int(c))
			if p.peek() != '+' {
				break
			}
			p.pos++
		}
	}
	if len(quot) == 0 || len(div) == 0 || len(by) == 0 {
		return nil, nil, nil, p.errf("divide needs quot=, div= and by= groups")
	}
	return quot, div, by, nil
}

// Spec aliases the join package's Spec for the parser's internal use.
type Spec = join.Spec
