// Package lts gives the specification language of internal/lotos its
// operational semantics as a labelled transition system, following the
// standard structured rules of Basic LOTOS (IS 8807) that the paper relies
// on: action prefix, choice, the three parallel operators, enabling ">>",
// disabling "[>", hiding and process instantiation with the paper's
// occurrence numbering (Section 3.5).
//
// The package provides single-step transition derivation, bounded
// state-space exploration, deadlock detection, and the lazy subset
// determinizer (Subsets) behind every weak-trace question. An explored
// Graph is pointer-free: an Edge is a LabelID and a target, 8 bytes, and the
// graph's Alphabet holds the Label of each id (see intern.go). Ids follow
// interning order, so every output that lists labels sorts them by their
// rendering or key, never by id. It is
// the substrate for the action-prefix-form transformation (internal/apf),
// the equivalence checks (internal/equiv) and the composed-system
// verification (internal/compose).
package lts

import (
	"repro/internal/lotos"
)

// LabelKind discriminates transition labels.
type LabelKind uint8

const (
	// LEvent is an observable interaction: a service primitive or a
	// send/receive message interaction.
	LEvent LabelKind = iota
	// LInternal is the unobservable internal action i (also produced by
	// hiding and by the ">>" enabling step).
	LInternal
	// LDelta is successful termination δ, produced by exit.
	LDelta
)

// Label is a transition label.
type Label struct {
	Kind LabelKind
	Ev   lotos.Event // valid for LEvent only
}

// Internal is the internal-action label.
func Internal() Label { return Label{Kind: LInternal} }

// Delta is the successful-termination label.
func Delta() Label { return Label{Kind: LDelta} }

// EventLabel wraps an event as a label, mapping the internal event to
// LInternal.
func EventLabel(ev lotos.Event) Label {
	if ev.Kind == lotos.EvInternal {
		return Internal()
	}
	return Label{Kind: LEvent, Ev: ev}
}

// Observable reports whether the label is visible to the environment
// (everything except the internal action; δ is observable).
func (l Label) Observable() bool { return l.Kind != LInternal }

// String renders the label: "i", "delta", or the event text.
func (l Label) String() string {
	switch l.Kind {
	case LInternal:
		return "i"
	case LDelta:
		return "delta"
	default:
		return l.Ev.String()
	}
}

// Key returns a canonical comparison key: two labels synchronize (and are
// equal for bisimulation purposes) exactly when their keys are equal.
func (l Label) Key() string {
	switch l.Kind {
	case LInternal:
		return internalKey
	case LDelta:
		return deltaKey
	default:
		return l.Ev.Gate()
	}
}

// The keys of the two labels that are not events.
const (
	internalKey = "\x01i"
	deltaKey    = "\x01d"
)

// appendKey appends l's Key to dst.
func (l Label) appendKey(dst []byte) []byte {
	switch l.Kind {
	case LInternal:
		return append(dst, internalKey...)
	case LDelta:
		return append(dst, deltaKey...)
	default:
		return l.Ev.AppendGate(dst)
	}
}

// Transition is a single derivation step e --Label--> To.
type Transition struct {
	Label Label
	To    lotos.Expr
}
