// Package fsm compiles derived protocol entities — the behaviour
// expressions PE_p produced by the derivation algorithm in internal/core —
// into table-driven finite state machines, so the concurrent runtime
// (internal/sim) can execute an entity by indexed array lookups instead of
// re-deriving SOS transitions from its syntax tree on every step.
//
// A compiled Machine carries two layers:
//
//   - The EXACT layer is the entity's explored labelled transition system
//     flattened into compressed-sparse-row int32 tables, with each state's
//     transitions in exactly the derivation order of lts.Env.Transitions.
//     This layer drives execution and counterexample replay: a runner
//     walking it is step-for-step and random-choice-for-random-choice
//     indistinguishable from the AST interpreter, and the transition
//     indices pinned by compose.Witness steps select the same transitions.
//
//   - The MINIMIZED layer is the weak-bisimulation quotient of the exact
//     layer (equiv.QuotientWeakMap), with each class's transitions sorted by
//     (label key, target class) — a canonical minimal form independent of
//     exploration order. It is what compositional verification composes
//     over (compose.NewCompositional builds the product from these tables,
//     never from the entity syntax), the compact form compile statistics
//     report, and ClassOf maps every exact state into it.
//
// A Machine is the one per-entity artifact of the pipeline: simulation,
// witness replay, live deployment and compositional verification all use
// it, and the content-addressed artifact cache above this package stores
// it keyed by the normalized entity text and the effective state cap.
//
// Entities whose state space exceeds the configured cap (the symptom of
// unbounded recursion, e.g. the anbn counter service) fail to compile with
// a structured *CompileError; callers fall back to the AST interpreter for
// those entities, so mixed fleets work.
package fsm

import (
	"fmt"

	"repro/internal/lotos"
	"repro/internal/lts"
)

// Op is the dispatch kind of one compiled transition: what the runtime has
// to do to execute it. It refines lts.LabelKind with the runtime-relevant
// event distinctions (send vs receive vs service primitive, and the
// flushing receive semantics of interrupt-handshake control messages).
type Op uint8

const (
	// OpInternal is the unobservable internal action i.
	OpInternal Op = iota
	// OpDelta is successful termination δ.
	OpDelta
	// OpSend emits a synchronization message into the medium.
	OpSend
	// OpRecv consumes the head of a FIFO channel.
	OpRecv
	// OpRecvFlush consumes a message from anywhere in its channel,
	// discarding everything queued before it (interrupt-handshake control
	// messages, see core.FlushingMsgID).
	OpRecvFlush
	// OpService offers a service primitive to the local user.
	OpService
)

// String renders the op for diagnostics.
func (o Op) String() string {
	switch o {
	case OpInternal:
		return "internal"
	case OpDelta:
		return "delta"
	case OpSend:
		return "send"
	case OpRecv:
		return "recv"
	case OpRecvFlush:
		return "recv-flush"
	case OpService:
		return "service"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// StateFlags summarizes which dispatch classes a state's transition row
// contains, so the runtime can skip work (e.g. a state with only service
// offers never scans for executable candidates).
type StateFlags uint8

const (
	// HasDelta marks a state with a successful-termination transition.
	HasDelta StateFlags = 1 << iota
	// HasInternal marks a state with an internal transition.
	HasInternal
	// HasSend marks a state with a send transition.
	HasSend
	// HasRecv marks a state with a receive (plain or flushing) transition.
	HasRecv
	// HasService marks a state with a service-primitive offer.
	HasService
)

// Machine is one compiled protocol entity. All slices are immutable after
// compilation; a Machine is safe for concurrent use by any number of
// runners.
//
// Exact layer: state s's transitions are the parallel entries
// Ops/Events/To in [Off[s], Off[s+1]), in derivation order. State 0 is the
// initial state.
//
// Minimized layer: class c's transitions are MinOps/MinEvents/MinTo in
// [MinOff[c], MinOff[c+1]), sorted by (label key, target class).
// ClassOf[s] is the class of exact state s; ClassOf[0] is always 0.
type Machine struct {
	// Place is the entity's protocol place (0 when compiled standalone).
	Place int

	// Off/Ops/Events/To are the exact transition tables.
	Off    []int32
	Ops    []Op
	Events []lotos.Event
	To     []int32
	// Keys holds the canonical expression key of each exact state
	// (diagnostics: blocked-state reporting renders Keys[current]).
	Keys []string
	// Flags summarizes each exact state's dispatch classes.
	Flags []StateFlags

	// OfferOff/OfferEvents/OfferEdge are the service-primitive dispatch
	// rows: state s offers OfferEvents[OfferOff[s]:OfferOff[s+1]] to its
	// user, and OfferEdge maps each offer back to its exact edge index.
	OfferOff    []int32
	OfferEvents []lotos.Event
	OfferEdge   []int32

	// ClassOf, MinOff, MinOps, MinEvents, MinTo, MinKeys are the minimized
	// layer. MinKeys[c] is the canonical expression key of class c's
	// representative state.
	ClassOf   []int32
	MinOff    []int32
	MinOps    []Op
	MinEvents []lotos.Event
	MinTo     []int32
	MinKeys   []string
}

// NumStates returns the exact layer's state count.
func (m *Machine) NumStates() int { return len(m.Off) - 1 }

// NumTransitions returns the exact layer's transition count.
func (m *Machine) NumTransitions() int { return len(m.Ops) }

// MinStates returns the minimized layer's state count (the number of weak-
// bisimilarity classes of the entity behaviour).
func (m *Machine) MinStates() int { return len(m.MinOff) - 1 }

// MinTransitions returns the minimized layer's transition count.
func (m *Machine) MinTransitions() int { return len(m.MinTo) }

// Row returns the exact edge index range of state s.
func (m *Machine) Row(s int32) (lo, hi int32) { return m.Off[s], m.Off[s+1] }

// Offers returns state s's service-primitive offers (shared slice — callers
// must not mutate) and the parallel exact edge indices.
func (m *Machine) Offers(s int32) ([]lotos.Event, []int32) {
	lo, hi := m.OfferOff[s], m.OfferOff[s+1]
	return m.OfferEvents[lo:hi], m.OfferEdge[lo:hi]
}

// opLabel reconstructs the lts.Label of a compiled transition.
func opLabel(op Op, ev lotos.Event) lts.Label {
	switch op {
	case OpInternal:
		return lts.Internal()
	case OpDelta:
		return lts.Delta()
	default:
		return lts.EventLabel(ev)
	}
}

// MinLabel reconstructs the lts.Label of minimized edge e.
func (m *Machine) MinLabel(e int32) lts.Label { return opLabel(m.MinOps[e], m.MinEvents[e]) }

// Graph reconstructs the exact layer as an lts.Graph (state expressions are
// not retained by compilation, so States holds nils; Keys and Edges are
// faithful). Used by equivalence checks and graph reporting.
func (m *Machine) Graph() *lts.Graph {
	n := m.NumStates()
	g := &lts.Graph{
		States:   make([]lotos.Expr, n),
		Keys:     append([]string(nil), m.Keys...),
		Edges:    make([][]lts.Edge, n),
		Depth:    make([]int, n),
		ObsDepth: make([]int, n),
		Frontier: map[int]bool{},
	}
	for s := 0; s < n; s++ {
		lo, hi := m.Off[s], m.Off[s+1]
		if lo == hi {
			continue
		}
		es := make([]lts.Edge, 0, hi-lo)
		for e := lo; e < hi; e++ {
			es = append(es, lts.Edge{Label: opLabel(m.Ops[e], m.Events[e]), To: int(m.To[e])})
		}
		g.Edges[s] = es
	}
	return g
}

// MinGraph reconstructs the minimized layer as an lts.Graph.
func (m *Machine) MinGraph() *lts.Graph {
	n := m.MinStates()
	g := &lts.Graph{
		States:   make([]lotos.Expr, n),
		Keys:     append([]string(nil), m.MinKeys...),
		Edges:    make([][]lts.Edge, n),
		Depth:    make([]int, n),
		ObsDepth: make([]int, n),
		Frontier: map[int]bool{},
	}
	for c := 0; c < n; c++ {
		lo, hi := m.MinOff[c], m.MinOff[c+1]
		if lo == hi {
			continue
		}
		es := make([]lts.Edge, 0, hi-lo)
		for e := lo; e < hi; e++ {
			es = append(es, lts.Edge{Label: m.MinLabel(e), To: int(m.MinTo[e])})
		}
		g.Edges[c] = es
	}
	return g
}

// CompileError reports that one entity's behaviour could not be compiled —
// its reachable state space exceeded the cap (unbounded recursion), or
// transition derivation itself failed. Callers are expected to fall back to
// the AST interpreter for the affected entity.
type CompileError struct {
	// Place is the entity's protocol place.
	Place int
	// States / Transitions size the graph explored when compilation
	// stopped.
	States      int
	Transitions int
	// Cap is the state cap compilation ran with (0 when the failure was not
	// a cap overflow).
	Cap int
	// Reason describes the failure.
	Reason string

	err error // underlying cause, for Unwrap (nil for cap overflows)
}

// Error implements the error interface.
func (e *CompileError) Error() string {
	return fmt.Sprintf("fsm: entity %d: %s", e.Place, e.Reason)
}

// Unwrap returns the underlying error (nil for cap overflows).
func (e *CompileError) Unwrap() error { return e.err }
