package sim

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/fsm"
	"repro/internal/lotos"
	"repro/internal/lts"
)

// stepper is the execution engine of one protocol entity: it exposes the
// current state's transitions as an indexed row (in derivation order — the
// order lts.Env.Transitions yields and compose's witnesses index), classified
// into runtime dispatch kinds. Two implementations exist: astStepper derives
// transitions from the entity's syntax tree on every step, fsmStepper looks
// them up in precompiled tables. EntityStepper is written against this
// interface only, so both engines share one scheduling loop — same
// candidate rows, same random-choice consumption, same traces.
type stepper interface {
	// reload makes the current state's transition row addressable and
	// returns its length.
	reload() (int, error)
	// op classifies transition i of the current row.
	op(i int) fsm.Op
	// ev returns the event of transition i (zero Event for internal/δ).
	ev(i int) lotos.Event
	// offers returns the row's service-primitive offers and their row
	// indices. The slices are valid until the next reload and must not be
	// mutated.
	offers() ([]lotos.Event, []int32)
	// advance moves to the target of transition i of the current row.
	advance(i int) error
	// describe renders the current state for diagnostics.
	describe() string
}

// astStepper interprets the entity specification directly: each reload
// derives the current expression's transitions with the SOS rules.
type astStepper struct {
	place int
	env   *lts.Env
	cur   lotos.Expr
	ts    []lts.Transition
	ops   []fsm.Op
	evs   []lotos.Event
	offEv []lotos.Event
	offIx []int32
}

func newASTStepper(place int, sp *lotos.Spec) (*astStepper, error) {
	env, err := lts.EnvFor(sp)
	if err != nil {
		return nil, fmt.Errorf("sim: entity %d: %w", place, err)
	}
	return &astStepper{place: place, env: env, cur: sp.Root.Expr}, nil
}

func (s *astStepper) reload() (int, error) {
	ts, err := s.env.Transitions(s.cur)
	if err != nil {
		return 0, err
	}
	s.ts = ts
	s.ops = s.ops[:0]
	s.evs = s.evs[:0]
	s.offEv = s.offEv[:0]
	s.offIx = s.offIx[:0]
	for i, t := range ts {
		op, ev := fsm.Classify(t.Label)
		s.ops = append(s.ops, op)
		s.evs = append(s.evs, ev)
		if op == fsm.OpService {
			s.offEv = append(s.offEv, ev)
			s.offIx = append(s.offIx, int32(i))
		}
	}
	return len(ts), nil
}

func (s *astStepper) op(i int) fsm.Op                  { return s.ops[i] }
func (s *astStepper) ev(i int) lotos.Event             { return s.evs[i] }
func (s *astStepper) offers() ([]lotos.Event, []int32) { return s.offEv, s.offIx }
func (s *astStepper) advance(i int) error              { s.cur = s.ts[i].To; return nil }
func (s *astStepper) describe() string                 { return lotos.Format(s.cur) }

// fsmStepper executes a compiled machine: reload is two array reads and the
// transition row, its classification and its offers are all precomputed.
type fsmStepper struct {
	m      *fsm.Machine
	state  int32
	lo, hi int32
	offIx  []int32
}

func newFSMStepper(m *fsm.Machine) *fsmStepper { return &fsmStepper{m: m} }

func (s *fsmStepper) reload() (int, error) {
	s.lo, s.hi = s.m.Row(s.state)
	return int(s.hi - s.lo), nil
}

func (s *fsmStepper) op(i int) fsm.Op      { return s.m.Ops[s.lo+int32(i)] }
func (s *fsmStepper) ev(i int) lotos.Event { return s.m.Events[s.lo+int32(i)] }

func (s *fsmStepper) offers() ([]lotos.Event, []int32) {
	evs, abs := s.m.Offers(s.state)
	s.offIx = s.offIx[:0]
	for _, e := range abs {
		s.offIx = append(s.offIx, e-s.lo)
	}
	return evs, s.offIx
}

func (s *fsmStepper) advance(i int) error {
	s.state = s.m.To[s.lo+int32(i)]
	return nil
}

func (s *fsmStepper) describe() string { return s.m.Keys[s.state] }

// newPCG seeds a PCG stream from a scheduling seed. Seeding is O(1) — the
// previous lagged-Fibonacci source spent ~10µs per entity filling its state
// vector, which dominated short simulation runs (see BenchmarkSimulate).
func newPCG(seed int64) *rand.PCG {
	return rand.NewPCG(uint64(seed), 0x9e3779b97f4a7c15)
}
