package lotos

import (
	"fmt"
	"strconv"
)

// Parse parses a complete specification "SPEC Def_block ENDSPEC".
//
// The accepted grammar is that of Table 1 of the paper, liberalized in ways
// that strictly contain the paper's language:
//
//   - "stop", bare "exit" and the internal action "i" are accepted wherever a
//     sequence may start (needed to express derived entities and the
//     algebraic laws of Annex A);
//   - send/receive interactions "s2(7)", "r1(x)", "s3(s,7)" and concrete
//     occurrences "s3(#0/5,7)" are accepted (needed for protocol entity
//     specifications);
//   - "hide g1,g2,... in B" is accepted (needed to state the Section-5
//     correctness relation; it is rejected by the service validator).
//
// Comments run from "--" to end of line.
func Parse(src string) (*Spec, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	sp, err := p.parseSpec()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tEOF {
		return nil, p.errHere("trailing input after ENDSPEC")
	}
	return sp, nil
}

// ParseExpr parses a bare behaviour expression (no SPEC/ENDSPEC wrapper and
// no WHERE block). It is convenient for tests and for embedding expressions.
func ParseExpr(src string) (Expr, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	e, err := p.parseE()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tEOF {
		return nil, p.errHere("trailing input after expression")
	}
	return e, nil
}

// MustParse is Parse that panics on error; intended for tests and examples
// with literal specifications.
func MustParse(src string) *Spec {
	sp, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return sp
}

// MustParseExpr is ParseExpr that panics on error.
func MustParseExpr(src string) Expr {
	e, err := ParseExpr(src)
	if err != nil {
		panic(err)
	}
	return e
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) advance() token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) expect(k tokKind) (token, error) {
	t := p.peek()
	if t.kind != k {
		return t, p.errAt(t, "expected %s, found %s", k, describe(t))
	}
	return p.advance(), nil
}

func describe(t token) string {
	if t.text != "" {
		return t.kind.String() + " " + strconv.Quote(t.text)
	}
	return t.kind.String()
}

func (p *parser) errAt(t token, format string, args ...any) *SyntaxError {
	return &SyntaxError{Line: t.line, Col: t.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) errHere(format string, args ...any) *SyntaxError {
	return p.errAt(p.peek(), format, args...)
}

// --- grammar productions ----------------------------------------------------

// Spec := SPEC DefBlock ENDSPEC
func (p *parser) parseSpec() (*Spec, error) {
	if _, err := p.expect(tSpec); err != nil {
		return nil, err
	}
	blk, err := p.parseDefBlock()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tEndSpec); err != nil {
		return nil, err
	}
	return &Spec{Root: blk}, nil
}

// DefBlock := e [WHERE ProcDef+]
func (p *parser) parseDefBlock() (*DefBlock, error) {
	e, err := p.parseE()
	if err != nil {
		return nil, err
	}
	blk := &DefBlock{Expr: e}
	if p.peek().kind == tWhere {
		p.advance()
		for p.peek().kind == tProc {
			pd, err := p.parseProcDef()
			if err != nil {
				return nil, err
			}
			blk.Procs = append(blk.Procs, pd)
		}
		if len(blk.Procs) == 0 {
			return nil, p.errHere("WHERE must be followed by at least one PROC definition")
		}
	}
	return blk, nil
}

// ProcDef := PROC ProcIdent = DefBlock END
func (p *parser) parseProcDef() (*ProcDef, error) {
	if _, err := p.expect(tProc); err != nil {
		return nil, err
	}
	name, err := p.expect(tProcIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tEquals); err != nil {
		return nil, err
	}
	body, err := p.parseDefBlock()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tEnd); err != nil {
		return nil, err
	}
	return &ProcDef{Name: name.text, Body: body}, nil
}

// e := Dis [>> e]           (rules 7-8; ">>" is right-associative)
func (p *parser) parseE() (Expr, error) {
	l, err := p.parseDis()
	if err != nil {
		return nil, err
	}
	if p.peek().kind == tEnableOp {
		p.advance()
		r, err := p.parseE()
		if err != nil {
			return nil, err
		}
		return Enb(l, r), nil
	}
	return l, nil
}

// Dis := Par [[> Dis]       (rules 9-10; "[>" is right-associative, law D1)
func (p *parser) parseDis() (Expr, error) {
	l, err := p.parsePar()
	if err != nil {
		return nil, err
	}
	if p.peek().kind == tDisableOp {
		p.advance()
		r, err := p.parseDis()
		if err != nil {
			return nil, err
		}
		return Dis(l, r), nil
	}
	return l, nil
}

// Par := Choice [parop Par] (rules 11-13; right-associative)
func (p *parser) parsePar() (Expr, error) {
	l, err := p.parseChoice()
	if err != nil {
		return nil, err
	}
	switch p.peek().kind {
	case tInterleaveOp:
		p.advance()
		r, err := p.parsePar()
		if err != nil {
			return nil, err
		}
		return Ill(l, r), nil
	case tFullParOp:
		p.advance()
		r, err := p.parsePar()
		if err != nil {
			return nil, err
		}
		return Full(l, r), nil
	case tLGate:
		p.advance()
		gates, err := p.parseGateList(tRGate)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tRGate); err != nil {
			return nil, err
		}
		r, err := p.parsePar()
		if err != nil {
			return nil, err
		}
		if len(gates) == 0 {
			// "|[]|" is written "[]" by the lexer; an explicitly empty gate
			// list cannot be produced, but guard anyway: it equals "|||".
			return Ill(l, r), nil
		}
		return Gates(l, gates, r), nil
	}
	return l, nil
}

// parseGateList parses a comma-separated list of event identifiers ending
// at the given closing token (which is not consumed). The wildcards "s*",
// "r*" are not part of the concrete syntax; gate lists in source text are
// plain event identifiers.
func (p *parser) parseGateList(closer tokKind) ([]string, error) {
	var gates []string
	if p.peek().kind == closer {
		return gates, nil
	}
	for {
		t, err := p.expect(tIdent)
		if err != nil {
			return nil, err
		}
		if _, err := ParseEventID(t.text); err != nil {
			return nil, p.errAt(t, "bad gate %q: %v", t.text, err)
		}
		gates = append(gates, t.text)
		if p.peek().kind != tComma {
			return gates, nil
		}
		p.advance()
	}
}

// Choice := Seq [[] Choice] (rules 14-15; right-associative)
func (p *parser) parseChoice() (Expr, error) {
	l, err := p.parseSeq()
	if err != nil {
		return nil, err
	}
	if p.peek().kind == tChoiceOp {
		p.advance()
		r, err := p.parseChoice()
		if err != nil {
			return nil, err
		}
		return Ch(l, r), nil
	}
	return l, nil
}

// Seq := exit | stop | ProcIdent | ( e ) | hide gates in Seq | Event ; Seq
func (p *parser) parseSeq() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tExit:
		p.advance()
		return X(), nil
	case tStop:
		p.advance()
		return Halt(), nil
	case tProcIdent:
		p.advance()
		return Call(t.text), nil
	case tLParen:
		p.advance()
		e, err := p.parseE()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tRParen); err != nil {
			return nil, err
		}
		return e, nil
	case tHide:
		p.advance()
		gates, err := p.parseGateList(tIn)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tIn); err != nil {
			return nil, err
		}
		body, err := p.parseSeq()
		if err != nil {
			return nil, err
		}
		return HideIn(gates, body), nil
	case tIdent:
		ev, err := p.parseEvent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tSemi); err != nil {
			return nil, err
		}
		cont, err := p.parseSeq()
		if err != nil {
			return nil, err
		}
		return Pfx(ev, cont), nil
	}
	return nil, p.errAt(t, "expected a behaviour expression, found %s", describe(t))
}

// parseEvent parses an event occurrence: the internal action "i", a
// send/receive interaction "s2(...)" / "r2(...)", or a service primitive
// identifier with trailing place digits.
func (p *parser) parseEvent() (Event, error) {
	t, err := p.expect(tIdent)
	if err != nil {
		return Event{}, err
	}
	if t.text == "i" {
		return InternalEvent(), nil
	}
	if (msgPrefix(t.text, 's') || msgPrefix(t.text, 'r')) && p.peek().kind == tLParen {
		place, _ := strconv.Atoi(t.text[1:])
		kind := EvSend
		if t.text[0] == 'r' {
			kind = EvRecv
		}
		ev := Event{Kind: kind, Place: place, Node: -1}
		p.advance() // (
		if err := p.parseMsgPayload(&ev); err != nil {
			return Event{}, err
		}
		if _, err := p.expect(tRParen); err != nil {
			return Event{}, err
		}
		return ev, nil
	}
	ev, err := ParseEventID(t.text)
	if err != nil {
		return Event{}, p.errAt(t, "%v", err)
	}
	return ev, nil
}

// msgPrefix reports whether id is the letter c followed only by digits.
func msgPrefix(id string, c byte) bool {
	if len(id) < 2 || id[0] != c {
		return false
	}
	for i := 1; i < len(id); i++ {
		if id[i] < '0' || id[i] > '9' {
			return false
		}
	}
	return true
}

// parseMsgPayload parses the message identification inside "s2( ... )":
//
//	NUMBER            node id, symbolic occurrence        s2(7)
//	IDENT             symbolic tag                        s2(x)
//	s , NUMBER        explicit symbolic occurrence        s2(s,7)
//	#OCC , NUMBER     concrete occurrence                 s2(#0/5,7)
func (p *parser) parseMsgPayload(ev *Event) error {
	switch t := p.peek(); t.kind {
	case tNumber:
		p.advance()
		n, _ := strconv.Atoi(t.text)
		ev.Node = n
		ev.Occ = OccSymbolic
		return nil
	case tOcc:
		p.advance()
		ev.Occ = t.text
		if _, err := p.expect(tComma); err != nil {
			return err
		}
		num, err := p.expect(tNumber)
		if err != nil {
			return err
		}
		ev.Node, _ = strconv.Atoi(num.text)
		return nil
	case tIdent:
		p.advance()
		if t.text == OccSymbolic && p.peek().kind == tComma {
			p.advance()
			num, err := p.expect(tNumber)
			if err != nil {
				return err
			}
			ev.Node, _ = strconv.Atoi(num.text)
			ev.Occ = OccSymbolic
			return nil
		}
		ev.Tag = t.text
		return nil
	default:
		return p.errAt(t, "expected message identification, found %s", describe(t))
	}
}
