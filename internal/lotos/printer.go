package lotos

import (
	"fmt"
	"strconv"
	"strings"
)

// Operator precedence levels used by the printer, loosest first. They mirror
// the grammar strata of Table 1: ">>" binds loosest, then "[>", the parallel
// operators, "[]", and finally action prefix and the atoms.
const (
	precEnable = iota + 1
	precDisable
	precParallel
	precChoice
	precSeq
	precAtom
)

func prec(e Expr) int {
	switch e.(type) {
	case *Enable:
		return precEnable
	case *Disable:
		return precDisable
	case *Parallel:
		return precParallel
	case *Choice:
		return precChoice
	case *Prefix:
		return precSeq
	case *Hide:
		return precSeq
	default:
		return precAtom
	}
}

// String renders the specification in concrete syntax. The output re-parses
// to a structurally equal specification (see TestPrintParseRoundTrip).
func (s *Spec) String() string {
	var b strings.Builder
	b.WriteString("SPEC\n")
	writeDefBlock(&b, s.Root, 1)
	b.WriteString("ENDSPEC\n")
	return b.String()
}

func indent(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
}

func writeDefBlock(b *strings.Builder, blk *DefBlock, depth int) {
	indent(b, depth)
	b.WriteString(Format(blk.Expr))
	b.WriteString("\n")
	if len(blk.Procs) > 0 {
		indent(b, depth)
		b.WriteString("WHERE\n")
		for _, pd := range blk.Procs {
			indent(b, depth)
			fmt.Fprintf(b, "PROC %s =\n", pd.Name)
			writeDefBlock(b, pd.Body, depth+1)
			indent(b, depth)
			b.WriteString("END\n")
		}
	}
}

// Format renders a behaviour expression on a single line with the minimal
// parenthesization required for the output to re-parse into the same tree.
func Format(e Expr) string {
	var b strings.Builder
	writeExpr(&b, e, 0)
	return b.String()
}

// writeExpr renders e, wrapping it in parentheses when its operator binds
// looser than the context requires.
func writeExpr(b *strings.Builder, e Expr, minPrec int) {
	if prec(e) < minPrec {
		b.WriteString("(")
		writeExpr(b, e, 0)
		b.WriteString(")")
		return
	}
	switch x := e.(type) {
	case *Stop:
		b.WriteString("stop")
	case *Exit:
		b.WriteString("exit")
	case *Empty:
		// Residual "empty" is a neutral successful termination (Section 4.2);
		// it prints as exit so that every rendering is a valid specification.
		b.WriteString("exit")
	case *ProcRef:
		b.WriteString(x.Name)
	case *Prefix:
		b.WriteString(x.Ev.String())
		b.WriteString("; ")
		writeExpr(b, x.Cont, precSeq)
	case *Choice:
		writeExpr(b, x.L, precChoice+1)
		b.WriteString(" [] ")
		writeExpr(b, x.R, precChoice)
	case *Parallel:
		writeExpr(b, x.L, precParallel+1)
		switch x.Kind {
		case ParInterleave:
			b.WriteString(" ||| ")
		case ParFull:
			b.WriteString(" || ")
		default:
			b.WriteString(" |[")
			b.WriteString(FormatGateSet(x.Sync))
			b.WriteString("]| ")
		}
		writeExpr(b, x.R, precParallel)
	case *Enable:
		writeExpr(b, x.L, precEnable+1)
		b.WriteString(" >> ")
		writeExpr(b, x.R, precEnable)
	case *Disable:
		writeExpr(b, x.L, precDisable+1)
		b.WriteString(" [> ")
		writeExpr(b, x.R, precDisable)
	case *Hide:
		b.WriteString("hide ")
		b.WriteString(FormatGateSet(x.Gates))
		b.WriteString(" in (")
		writeExpr(b, x.Body, 0)
		b.WriteString(")")
	default:
		fmt.Fprintf(b, "<?%T>", e)
	}
}

// Canon returns a canonical single-line string for an expression, used as a
// state key during state-space exploration. It differs from Format in that
// the derivation-time Empty node stays distinguishable and occurrence
// numbers of process references are included.
func Canon(e Expr) string { return CanonRenamed(e, nil) }

// A Renaming maps the identifiers a canonical form prints: process call-site
// ids, message node numbers and the occurrence paths built from call-site
// ids.
type Renaming interface {
	ID(id int) int
	Occ(occ string) string
}

// CanonRenamed is Canon with every process call site, and the node number
// and occurrence path of every untagged message, printed through r. A nil r
// prints them as they are.
func CanonRenamed(e Expr, r Renaming) string {
	var b strings.Builder
	writeCanon(&b, e, r)
	return b.String()
}

func writeCanon(b *strings.Builder, e Expr, r Renaming) {
	switch x := e.(type) {
	case *Stop:
		b.WriteString("0")
	case *Exit:
		b.WriteString("X")
	case *Empty:
		b.WriteString("E")
	case *ProcRef:
		id, occ := x.id, x.Occ
		if r != nil {
			id, occ = r.ID(id), r.Occ(occ)
		}
		var num [20]byte
		b.WriteString("P(")
		b.WriteString(x.Name)
		b.WriteByte('@')
		b.Write(strconv.AppendInt(num[:0], int64(id), 10))
		b.WriteByte('^')
		b.WriteString(occ)
		b.WriteByte(')')
	case *Prefix:
		ev := x.Ev
		if r != nil && ev.IsMessage() && ev.Tag == "" {
			ev.Node, ev.Occ = r.ID(ev.Node), r.Occ(ev.Occ)
		}
		var gate [64]byte
		b.Write(ev.AppendGate(gate[:0]))
		if ev.Kind == EvInternal {
			b.WriteString("i")
		}
		b.WriteString(".")
		writeCanon(b, x.Cont, r)
	case *Choice:
		b.WriteString("(")
		writeCanon(b, x.L, r)
		b.WriteString("+")
		writeCanon(b, x.R, r)
		b.WriteString(")")
	case *Parallel:
		b.WriteString("(")
		writeCanon(b, x.L, r)
		switch x.Kind {
		case ParInterleave:
			b.WriteString("|||")
		case ParFull:
			b.WriteString("||")
		default:
			b.WriteString("|[" + FormatGateSet(x.Sync) + "]|")
		}
		writeCanon(b, x.R, r)
		b.WriteString(")")
	case *Enable:
		b.WriteString("(")
		writeCanon(b, x.L, r)
		b.WriteString(">>")
		writeCanon(b, x.R, r)
		b.WriteString(")")
	case *Disable:
		b.WriteString("(")
		writeCanon(b, x.L, r)
		b.WriteString("[>")
		writeCanon(b, x.R, r)
		b.WriteString(")")
	case *Hide:
		b.WriteString("hide[" + FormatGateSet(x.Gates) + "](")
		writeCanon(b, x.Body, r)
		b.WriteString(")")
	default:
		fmt.Fprintf(b, "<?%T>", e)
	}
}
