package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/attr"
	"repro/internal/lotos"
)

// NodeCost is the message cost attributed to one operator occurrence
// (Section 4.3).
type NodeCost struct {
	// Node is the syntax-tree node number.
	Node int
	// Op names the operator class: "seq" (';' or '>>'), "choice",
	// "disable-rel", "disable-interr" or "instantiate".
	Op string
	// Messages is the number of send interactions this occurrence
	// contributes across all derived entities.
	Messages int
}

// Complexity is the message-complexity report of Section 4.3 for one
// service specification: how many synchronization messages the derivation
// generates, broken down by operator class.
type Complexity struct {
	// Places is n = |ALL|.
	Places int
	// Seq counts messages from ';' and '>>' (at most one per occurrence
	// between singleton ending/starting place sets; parallel starting or
	// ending sets multiply the count, Section 4.3).
	Seq int
	// Choice counts Alternative messages (at most n per '[]' occurrence).
	Choice int
	// DisableRel counts Rel termination-barrier messages (at most n-1 per
	// '[>' occurrence with a single ending place).
	DisableRel int
	// DisableInterr counts Interr interrupt broadcasts (at most n-2 per
	// disabling alternative whose continuation has starting places).
	DisableInterr int
	// Instantiate counts Proc_Synch messages (at most n-1 per process
	// instantiation with a single starting place).
	Instantiate int
	// PerNode attributes costs to individual operator occurrences, sorted
	// by node number.
	PerNode []NodeCost `json:"-"`
}

// Total returns the total static message count (the number of send
// interactions in the union of all derived entity texts).
func (c Complexity) Total() int {
	return c.Seq + c.Choice + c.DisableRel + c.DisableInterr + c.Instantiate
}

// String renders the report as the Section 4.3 table.
func (c Complexity) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "places n=%d\n", c.Places)
	fmt.Fprintf(&b, "  seq (';' '>>')      %4d\n", c.Seq)
	fmt.Fprintf(&b, "  choice '[]'         %4d\n", c.Choice)
	fmt.Fprintf(&b, "  disable Rel         %4d\n", c.DisableRel)
	fmt.Fprintf(&b, "  disable Interr      %4d\n", c.DisableInterr)
	fmt.Fprintf(&b, "  instantiation       %4d\n", c.Instantiate)
	fmt.Fprintf(&b, "  total               %4d\n", c.Total())
	return b.String()
}

// MessageComplexity computes, from the attributes alone (without deriving),
// the number of synchronization messages the derivation inserts for every
// operator occurrence, for the default broadcast interrupt mode. It equals
// the number of send interactions of the derived entities (see
// TestE8_ComplexityMatchesDerivedSends).
func MessageComplexity(info *attr.Info) Complexity {
	return MessageComplexityMode(info, InterruptBroadcast)
}

// MessageComplexityMode is MessageComplexity for a specific disabling
// implementation: the handshake mode pays 2(n-1) request/acknowledgment
// messages per disabling alternative instead of the broadcast's at most
// n-2.
func MessageComplexityMode(info *attr.Info, mode InterruptMode) Complexity {
	c := Complexity{Places: info.All.Len()}
	all := info.All

	countSeq := func(e1, e2 lotos.Expr, node int) {
		a1, a2 := info.Of(e1), info.Of(e2)
		n := 0
		for _, p := range a1.EP.Sorted() {
			n += a2.SP.MinusPlace(p).Len()
		}
		if n > 0 {
			c.Seq += n
			c.PerNode = append(c.PerNode, NodeCost{Node: node, Op: "seq", Messages: n})
		}
	}

	// Disabling right-hand sides need the Interr accounting of rule 9.4,
	// so the walk tracks which prefixes are the first events of disabling
	// alternatives.
	disablingFirst := map[lotos.Expr]bool{}
	var markDisabling func(e lotos.Expr)
	markDisabling = func(e lotos.Expr) {
		switch x := e.(type) {
		case *lotos.Choice:
			markDisabling(x.L)
			markDisabling(x.R)
		case *lotos.Prefix:
			disablingFirst[x] = true
		}
	}
	lotos.WalkSpec(info.Spec, func(e lotos.Expr) {
		if d, ok := e.(*lotos.Disable); ok {
			markDisabling(d.R)
		}
	})

	lotos.WalkSpec(info.Spec, func(e lotos.Expr) {
		switch x := e.(type) {
		case *lotos.Enable:
			countSeq(x.L, x.R, x.ID())

		case *lotos.Prefix:
			if isTermination(x.Cont) && !disablingFirst[x] {
				return // rule 17: no synchronization
			}
			// Rule 16 / 9.4 Synch_Left from the event's place.
			spCont := info.Of(x.Cont).SP
			n := spCont.MinusPlace(x.Ev.Place).Len()
			if n > 0 {
				c.Seq += n
				c.PerNode = append(c.PerNode, NodeCost{Node: x.ID(), Op: "seq", Messages: n})
			}
			if disablingFirst[x] {
				if mode == InterruptHandshake {
					// Section 3.3 alternative: request + acknowledgment
					// between the interrupter and every other place.
					m := 2 * all.MinusPlace(x.Ev.Place).Len()
					if m > 0 {
						c.DisableInterr += m
						c.PerNode = append(c.PerNode, NodeCost{Node: x.ID(), Op: "disable-handshake", Messages: m})
					}
				} else {
					// Rule 9.4 Interr broadcast.
					sp1 := attr.NewPlaceSet(x.Ev.Place)
					m := all.Minus(sp1).Minus(spCont).Len()
					if m > 0 {
						c.DisableInterr += m
						c.PerNode = append(c.PerNode, NodeCost{Node: x.ID(), Op: "disable-interr", Messages: m})
					}
				}
			}

		case *lotos.Choice:
			aL, aR := info.Of(x.L), info.Of(x.R)
			n := aR.AP.Minus(aL.AP).Len() + aL.AP.Minus(aR.AP).Len()
			if n > 0 {
				c.Choice += n
				c.PerNode = append(c.PerNode, NodeCost{Node: x.ID(), Op: "choice", Messages: n})
			}

		case *lotos.Disable:
			// Rel barrier: every ending place of the normal part broadcasts.
			ep := info.Of(x.L).EP
			n := 0
			for _, p := range ep.Sorted() {
				n += all.MinusPlace(p).Len()
			}
			if n > 0 {
				c.DisableRel += n
				c.PerNode = append(c.PerNode, NodeCost{Node: x.ID(), Op: "disable-rel", Messages: n})
			}

		case *lotos.ProcRef:
			sp := info.Of(x).SP
			n := sp.Len() * all.Minus(sp).Len()
			if n > 0 {
				c.Instantiate += n
				c.PerNode = append(c.PerNode, NodeCost{Node: x.ID(), Op: "instantiate", Messages: n})
			}
		}
	})
	sort.Slice(c.PerNode, func(i, j int) bool { return c.PerNode[i].Node < c.PerNode[j].Node })
	return c
}
