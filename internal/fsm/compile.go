package fsm

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/equiv"
	"repro/internal/lotos"
	"repro/internal/lts"
)

// DefaultMaxStates is the default per-entity state cap. Derived entities of
// the corpus are a few dozen to a few hundred states; anything past this cap
// is in practice an unbounded recursion (the state key grows with the
// recursion depth), so minimization reports it instead of exploring forever
// and execution stops retaining rows.
const DefaultMaxStates = 4096

// Config parameterizes a machine. The zero value selects defaults.
type Config struct {
	// MaxStates caps the retained states of the execution layer and the
	// exploration behind the minimized layer, which fails with a
	// *CompileError past it. 0 means DefaultMaxStates.
	MaxStates int
}

func (c Config) maxStates() int {
	if c.MaxStates <= 0 {
		return DefaultMaxStates
	}
	return c.MaxStates
}

// Compile builds the machine of one derived entity specification together
// with its minimized layer: a state space exceeding the cap returns a
// *CompileError and no machine.
func Compile(place int, sp *lotos.Spec, cfg Config) (*Machine, error) {
	m, err := New(place, sp, cfg)
	if err != nil {
		return nil, err
	}
	if _, err := m.Minimized(); err != nil {
		return nil, err
	}
	return m, nil
}

// Classify maps a transition label to its runtime dispatch kind and event.
// It is the single classification rule of execution rows and minimized
// rows, and of the SOS reference stepper the runtime is tested against.
func Classify(l lts.Label) (Op, lotos.Event) {
	switch l.Kind {
	case lts.LInternal:
		return OpInternal, lotos.Event{}
	case lts.LDelta:
		return OpDelta, lotos.Event{}
	}
	ev := l.Ev
	switch ev.Kind {
	case lotos.EvSend:
		return OpSend, ev
	case lotos.EvRecv:
		// Statically derived control messages (interrupt-handshake req/ack)
		// flush their channel on receipt; symbolic hand-written tags never do.
		if ev.Tag == "" && core.FlushingMsgID(ev.Node) {
			return OpRecvFlush, ev
		}
		return OpRecv, ev
	default:
		return OpService, ev
	}
}

// Minimized is a machine's eagerly explored form: the exact sizes of the
// entity's complete reachable transition system, and its weak-bisimulation
// quotient as int32 compressed-sparse-row tables. Class c's transitions are
// Ops/Events/To in [Off[c], Off[c+1]), sorted by (label key, target class);
// Keys[c] is the canonical expression key of class c's representative state,
// and class 0 holds the initial state. Immutable.
type Minimized struct {
	// ExactStates / ExactTransitions size the entity's reachable LTS.
	ExactStates      int
	ExactTransitions int

	Off    []int32
	Ops    []Op
	Events []lotos.Event
	To     []int32
	Keys   []string
}

// NumStates returns the minimized state count (the number of weak-
// bisimilarity classes of the entity behaviour).
func (l *Minimized) NumStates() int { return len(l.Off) - 1 }

// NumTransitions returns the minimized transition count.
func (l *Minimized) NumTransitions() int { return len(l.To) }

// Label reconstructs the lts.Label of minimized edge e.
func (l *Minimized) Label(e int32) lts.Label { return opLabel(l.Ops[e], l.Events[e]) }

// Minimized returns the machine's minimized layer, exploring the entity to
// the cap and quotienting it on first call; later calls return the same
// layer, or the same *CompileError when the state space exceeds the cap.
// Safe for concurrent use, and concurrent with execution.
func (m *Machine) Minimized() (*Minimized, error) {
	m.minOnce.Do(func() {
		m.min, m.minErr = m.minimize()
		m.minDone.Store(true)
	})
	return m.min, m.minErr
}

// MinimizedBuilt reports whether the minimized layer (or its error) is
// already built, so that Minimized returns without exploring.
func (m *Machine) MinimizedBuilt() bool { return m.minDone.Load() }

func (m *Machine) minimize() (*Minimized, error) {
	clone := lotos.CloneSpec(m.spec)
	env, err := lts.EnvFor(clone)
	if err != nil {
		return nil, &CompileError{Place: m.Place, Reason: err.Error(), err: err}
	}
	g, err := lts.Explore(env, clone.Root.Expr, lts.Limits{MaxStates: m.maxStates})
	if err != nil {
		return nil, &CompileError{Place: m.Place, Reason: err.Error(), err: err}
	}
	if g.Truncated {
		return nil, &CompileError{
			Place:       m.Place,
			States:      g.NumStates(),
			Transitions: g.NumTransitions(),
			Cap:         m.maxStates,
			Reason:      fmt.Sprintf("state space exceeds cap (%d states explored, cap %d): entity behaviour is unbounded or the cap is too small", g.NumStates(), m.maxStates),
		}
	}

	// Weak-bisimulation quotient, each class row sorted by (label key,
	// target class) so the canonical tables do not depend on exploration
	// order.
	q, _ := equiv.QuotientWeakMap(g)
	qn, qt := q.NumStates(), q.NumTransitions()
	l := &Minimized{
		ExactStates:      g.NumStates(),
		ExactTransitions: g.NumTransitions(),
		Off:              make([]int32, qn+1),
		Ops:              make([]Op, 0, qt),
		Events:           make([]lotos.Event, 0, qt),
		To:               make([]int32, 0, qt),
		Keys:             q.Keys,
	}
	for c := 0; c < qn; c++ {
		row := append([]lts.Edge(nil), q.Edges[c]...)
		sort.SliceStable(row, func(i, j int) bool {
			ki, kj := row[i].Label.Key(), row[j].Label.Key()
			if ki != kj {
				return ki < kj
			}
			return row[i].To < row[j].To
		})
		for _, e := range row {
			op, ev := Classify(e.Label)
			l.Ops = append(l.Ops, op)
			l.Events = append(l.Events, ev)
			l.To = append(l.To, int32(e.To))
		}
		l.Off[c+1] = int32(len(l.To))
	}
	return l, nil
}

// Fleet is the set of machines of a derived protocol's entities.
type Fleet struct {
	// Machines maps each place to its machine.
	Machines map[int]*Machine
	// Errors maps each place whose specification does not resolve to the
	// error; such a place has no machine.
	Errors map[int]*CompileError
}

// CompileEntities builds the machine of every entity of a derived protocol.
// Nothing is explored: rows fill as sessions visit them.
func CompileEntities(entities map[int]*lotos.Spec, cfg Config) *Fleet {
	f := &Fleet{
		Machines: make(map[int]*Machine, len(entities)),
		Errors:   map[int]*CompileError{},
	}
	for p, sp := range entities {
		m, err := New(p, sp, cfg)
		if err != nil {
			f.Errors[p] = err.(*CompileError)
			continue
		}
		f.Machines[p] = m
	}
	return f
}
