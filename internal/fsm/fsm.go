// Package fsm runs derived protocol entities — the behaviour expressions
// PE_p produced by the derivation algorithm in internal/core — as lazily
// tabled state machines, so the runtime (internal/sim) executes an entity by
// reading transition rows instead of re-deriving SOS transitions from its
// syntax tree on every step.
//
// A Machine carries two layers:
//
//   - The EXECUTION layer is filled on demand: the first time any session
//     visits a state, the state's row is derived with lts.Env.Transitions,
//     classified by Classify and kept, in derivation order — the order
//     compose.Witness steps index — so transition indices and random-choice
//     consumption do not depend on which session filled a row. Up to the
//     machine's state cap, states are retained (numbered densely, the root
//     0) and their rows shared by every session; past it a state's row is
//     derived on every visit and not kept. Execution is therefore never
//     capped, and memory stays bounded by the cap. Unbounded (non-regular)
//     entities such as the anbn counter run like any other.
//
//   - The MINIMIZED layer (Minimized) is built once, on first request, by
//     an eager bounded exploration of the execution rows plus their weak-
//     bisimulation quotient (equiv.QuotientWeakMap), with each class's
//     transitions sorted by (label key, target class) — a canonical minimal
//     form independent of exploration order. Compositional verification
//     composes over it and compile reports read it. Past the cap it fails
//     with a *CompileError.
//
// A Machine is the one per-entity artifact of the pipeline and the only
// deriver of entity transitions: simulation, witness replay, live
// deployment and the product explorer (internal/compose) all step it, and
// the content-addressed cache in this package (Cache) stores it keyed by the
// normalized entity text and the effective state cap.
package fsm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/lotos"
	"repro/internal/lts"
)

// Op is the dispatch kind of one transition: what the runtime has to do to
// execute it. It refines lts.LabelKind with the runtime-relevant event
// distinctions (send vs receive vs service primitive, and the flushing
// receive semantics of interrupt-handshake control messages).
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

// opLabel reconstructs the lts.Label of a classified transition.
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

// Machine is one protocol entity as a lazily tabled state machine. It is
// safe for concurrent use by any number of sessions: rows are filled under
// the machine's lock and published atomically, so reading a filled row
// takes no lock.
type Machine struct {
	// Place is the entity's protocol place (0 when built standalone).
	Place int

	maxStates int

	// mu guards the execution layer's construction: the SOS environment
	// (its instantiation memo is not safe for concurrent use), the key
	// index of retained states, their id table, and row derivation.
	mu     sync.Mutex
	spec   *lotos.Spec // the machine's private, resolved clone
	env    *lts.Env
	index  map[string]*State
	states []*State // retained states by id
	root   *State

	minOnce sync.Once
	minDone atomic.Bool
	min     *Minimized
	minErr  error
}

// State is one entity state: a retained state, whose row is filled once and
// shared by every session, or — once the cap is reached — a transient one,
// whose row is derived on every visit.
type State struct {
	expr lotos.Expr // nil once a retained row is filled
	key  string
	id   int32 // dense id in interning order; -1 for a transient state
	row  atomic.Pointer[Row]
}

// Key returns the state's canonical expression key (blocked entities report
// it; product state keys digest it).
func (s *State) Key() string { return s.key }

// ID returns the state's dense id in interning order (root 0), -1 if transient.
func (s *State) ID() int32 { return s.id }

// Row is one state's transitions in derivation order, classified by
// Classify. A row is immutable: callers must not mutate its slices.
type Row struct {
	Ops    []Op
	Events []lotos.Event // zero Event for internal and δ transitions
	To     []*State
	// Offers are the row's service-primitive offers to the local user, and
	// OfferAt[i] the row index of Offers[i].
	Offers  []lotos.Event
	OfferAt []int32
}

// New builds the machine of one derived entity specification without
// exploring it. The specification is cloned first (resolution and
// instantiation write to syntax trees), so sp is not mutated and may be
// shared. It fails only when the specification does not resolve.
func New(place int, sp *lotos.Spec, cfg Config) (*Machine, error) {
	clone := lotos.CloneSpec(sp)
	env, err := lts.EnvFor(clone)
	if err != nil {
		return nil, &CompileError{Place: place, Reason: err.Error(), err: err}
	}
	m := &Machine{Place: place, maxStates: cfg.maxStates(), spec: clone, env: env, index: map[string]*State{}}
	m.root = m.intern(clone.Root.Expr)
	return m, nil
}

// Root returns the initial state.
func (m *Machine) Root() *State { return m.root }

// State returns the retained state with the given id and its expression,
// which is nil once the row is filled. Callers must not mutate it.
func (m *Machine) State(id int32) (*State, lotos.Expr) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.states[id], m.states[id].expr
}

// Row returns state s's transition row, deriving it on first visit. A
// retained state's row is derived once and then read without locking; a
// transient state's row is derived afresh on every call.
func (m *Machine) Row(s *State) (*Row, error) {
	if r := s.row.Load(); r != nil {
		return r, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if r := s.row.Load(); r != nil {
		return r, nil
	}
	ts, err := m.env.Transitions(s.expr)
	if err != nil {
		return nil, err
	}
	r := &Row{Ops: make([]Op, len(ts)), Events: make([]lotos.Event, len(ts)), To: make([]*State, len(ts))}
	offers := 0
	for i, t := range ts {
		r.Ops[i], r.Events[i] = Classify(t.Label)
		r.To[i] = m.intern(t.To)
		if r.Ops[i] == OpService {
			offers++
		}
	}
	if offers > 0 {
		r.Offers, r.OfferAt = make([]lotos.Event, 0, offers), make([]int32, 0, offers)
		for i, op := range r.Ops {
			if op == OpService {
				r.Offers = append(r.Offers, r.Events[i])
				r.OfferAt = append(r.OfferAt, int32(i))
			}
		}
	}
	if s.id >= 0 {
		s.expr = nil
		s.row.Store(r)
	}
	return r, nil
}

// intern returns the state of expression e: the retained state with e's
// canonical key, a new retained state while the cap allows, or a transient
// one. Caller holds mu (New runs before the machine is shared).
func (m *Machine) intern(e lotos.Expr) *State {
	key := lotos.Canon(e)
	if s := m.index[key]; s != nil {
		return s
	}
	s := &State{expr: e, key: key, id: -1}
	if len(m.states) < m.maxStates {
		s.id = int32(len(m.states))
		m.index[key] = s
		m.states = append(m.states, s)
	}
	return s
}

// Retained returns the number of retained states (at most the cap).
func (m *Machine) Retained() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.states)
}

// CompileError reports that an entity's machine could not be built — its
// specification does not resolve (Cap 0) — or that its minimized layer
// could not: the reachable state space exceeds the cap (Cap > 0).
type CompileError struct {
	// Place is the entity's protocol place.
	Place int
	// States / Transitions size the graph explored when exploration
	// stopped.
	States      int
	Transitions int
	// Cap is the state cap exploration ran with (0 when the failure was not
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
