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
// recursion depth), so compilation reports it instead of exploring forever.
const DefaultMaxStates = 4096

// Config parameterizes compilation. The zero value selects defaults.
type Config struct {
	// MaxStates caps the per-entity state space; exceeding it yields a
	// *CompileError. 0 means DefaultMaxStates.
	MaxStates int
}

func (c Config) maxStates() int {
	if c.MaxStates <= 0 {
		return DefaultMaxStates
	}
	return c.MaxStates
}

// Compile explores the behaviour of one derived entity specification and
// builds its table-driven machine. The input specification is cloned first
// (exploration numbers syntax trees in place), so sp is not mutated and may
// be shared. A state space exceeding the cap returns a *CompileError.
func Compile(place int, sp *lotos.Spec, cfg Config) (*Machine, error) {
	clone := lotos.CloneSpec(sp)
	env, err := lts.EnvFor(clone)
	if err != nil {
		return nil, &CompileError{Place: place, Reason: err.Error(), err: err}
	}
	g, err := lts.Explore(env, clone.Root.Expr, lts.Limits{MaxStates: cfg.maxStates()})
	if err != nil {
		return nil, &CompileError{Place: place, Reason: err.Error(), err: err}
	}
	if g.Truncated {
		return nil, &CompileError{
			Place:       place,
			States:      g.NumStates(),
			Transitions: g.NumTransitions(),
			Cap:         cfg.maxStates(),
			Reason:      fmt.Sprintf("state space exceeds cap (%d states explored, cap %d): entity behaviour is unbounded or the cap is too small", g.NumStates(), cfg.maxStates()),
		}
	}
	return fromGraph(place, g), nil
}

// Classify maps a transition label to its runtime dispatch kind and event.
// It is the single classification rule shared by the compiler and by the
// runtime's AST engine, so both engines partition transition rows
// identically.
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

func flagFor(op Op) StateFlags {
	switch op {
	case OpInternal:
		return HasInternal
	case OpDelta:
		return HasDelta
	case OpSend:
		return HasSend
	case OpRecv, OpRecvFlush:
		return HasRecv
	default:
		return HasService
	}
}

// fromGraph flattens an explored entity graph into the two table layers.
func fromGraph(place int, g *lts.Graph) *Machine {
	n := g.NumStates()
	nt := g.NumTransitions()
	m := &Machine{
		Place:    place,
		Off:      make([]int32, n+1),
		Ops:      make([]Op, 0, nt),
		Events:   make([]lotos.Event, 0, nt),
		To:       make([]int32, 0, nt),
		Keys:     append([]string(nil), g.Keys...),
		Flags:    make([]StateFlags, n),
		OfferOff: make([]int32, n+1),
	}
	for s := 0; s < n; s++ {
		for _, e := range g.Edges[s] {
			op, ev := Classify(e.Label)
			edge := int32(len(m.Ops))
			m.Ops = append(m.Ops, op)
			m.Events = append(m.Events, ev)
			m.To = append(m.To, int32(e.To))
			m.Flags[s] |= flagFor(op)
			if op == OpService {
				m.OfferEvents = append(m.OfferEvents, ev)
				m.OfferEdge = append(m.OfferEdge, edge)
			}
		}
		m.Off[s+1] = int32(len(m.Ops))
		m.OfferOff[s+1] = int32(len(m.OfferEvents))
	}

	// Minimized layer: weak-bisimulation quotient, each class row sorted by
	// (label key, target class) so the canonical tables do not depend on
	// exploration order.
	q, classOf := equiv.QuotientWeakMap(g)
	m.ClassOf = classOf
	qn := q.NumStates()
	qt := q.NumTransitions()
	m.MinOff = make([]int32, qn+1)
	m.MinOps = make([]Op, 0, qt)
	m.MinEvents = make([]lotos.Event, 0, qt)
	m.MinTo = make([]int32, 0, qt)
	m.MinKeys = append([]string(nil), q.Keys...)
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
			m.MinOps = append(m.MinOps, op)
			m.MinEvents = append(m.MinEvents, ev)
			m.MinTo = append(m.MinTo, int32(e.To))
		}
		m.MinOff[c+1] = int32(len(m.MinTo))
	}
	return m
}

// Fleet is the compilation result for a set of protocol entities: the
// machines that compiled plus, per entity that did not, the structured
// reason. A fleet with Errors is still runnable — the runtime executes the
// failed entities with the AST interpreter (a mixed fleet).
type Fleet struct {
	// Machines maps each successfully compiled place to its machine.
	Machines map[int]*Machine
	// Errors maps each failed place to its compile error.
	Errors map[int]*CompileError
}

// Compiled reports whether place compiled.
func (f *Fleet) Compiled(place int) bool {
	_, ok := f.Machines[place]
	return ok
}

// CompileEntities compiles every entity of a derived protocol, in ascending
// place order: the explorations of over-cap entities dominate a fleet's
// allocation, and a fixed order keeps its peak memory reproducible. It
// never fails as a whole: entities that cannot be compiled are recorded in
// Errors and the caller runs them interpreted.
func CompileEntities(entities map[int]*lotos.Spec, cfg Config) *Fleet {
	f := &Fleet{
		Machines: make(map[int]*Machine, len(entities)),
		Errors:   map[int]*CompileError{},
	}
	places := make([]int, 0, len(entities))
	for p := range entities {
		places = append(places, p)
	}
	sort.Ints(places)
	for _, p := range places {
		machine, err := Compile(p, entities[p], cfg)
		if err != nil {
			f.Errors[p] = err.(*CompileError)
			continue
		}
		f.Machines[p] = machine
	}
	return f
}
