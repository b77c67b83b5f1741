package sim

// The session: one protocol execution advanced synchronously, a sweep at a
// time, on the caller's goroutine — no per-entity goroutines, no timers, no
// wall clock. It is the Lockstep scheduler over in-process EntitySteppers
// and their medium as a resumable object: Run steps it in quanta of
// runQuantum sweeps and checks its wall-clock budget between them. Quantum
// boundaries fall exactly between sweeps, so stepping a session in any
// quanta gives the execution Run gives for the same Config.

import (
	"fmt"
	"sort"

	"repro/internal/fsm"
	"repro/internal/lotos"
	"repro/internal/medium"
)

// entityPlaces returns the sorted places of an entity map. Ascending place
// order fixes the per-entity scheduling seeds, so a run is identified by
// cfg.Seed alone.
func entityPlaces(entities map[int]*lotos.Spec) []int {
	places := make([]int, 0, len(entities))
	for p := range entities {
		places = append(places, p)
	}
	sort.Ints(places)
	return places
}

// newSteppers constructs one EntityStepper per place over the configured
// fleet's machines, recalling machines for the entities through a private
// cache when cfg.Fleet is nil.
func newSteppers(entities map[int]*lotos.Spec, places []int, med medium.Transport, cfg Config) ([]*EntityStepper, error) {
	fleet := cfg.Fleet
	if fleet == nil {
		fleet = fsm.NewCache(0).Fleet(entities, fsm.EntityKeys(entities), cfg.Compile.MaxStates)
	}
	steppers := make([]*EntityStepper, len(places))
	for i, p := range places {
		m := fleet.Machines[p]
		if m == nil {
			if ce := fleet.Errors[p]; ce != nil {
				return nil, fmt.Errorf("sim: %w", ce)
			}
			return nil, fmt.Errorf("sim: entity %d has no machine", p)
		}
		steppers[i] = newEntityStepper(p, m, med, cfg.Harness, subSeed(cfg.Seed, roleRunner, i))
	}
	return steppers, nil
}

// session is one protocol execution stepped synchronously by its caller.
// It is single-goroutine state.
type session struct {
	ls       *Lockstep
	steppers []*EntityStepper
	med      transport
}

// transport is a session's medium: the entities' channels on the virtual
// clock the session ticks once per sweep.
type transport interface {
	medium.Transport
	Clock
}

// newSession builds a synchronous session over the entities, deriving the
// config's harness and medium sub-seeds. Every Config field but Timeout
// (which only Run's wall-clock budget reads) behaves as in Run.
func newSession(entities map[int]*lotos.Spec, cfg Config) (*session, error) {
	cfg = resolveSeeds(cfg)
	var med transport
	if cfg.Reliable {
		med = medium.NewReliable(cfg.Medium)
	} else {
		med = medium.New(cfg.Medium)
	}
	steppers, err := newSteppers(entities, entityPlaces(entities), med, cfg)
	if err != nil {
		return nil, err
	}
	inFlight := func() (int, error) { return med.InFlight(), nil }
	return &session{ls: NewLockstep(asEntities(steppers), cfg.MaxEvents, inFlight, med), steppers: steppers, med: med}, nil
}

// asEntities views steppers through the Entity contract.
func asEntities(steppers []*EntityStepper) []Entity {
	ents := make([]Entity, len(steppers))
	for i, e := range steppers {
		ents[i] = e
	}
	return ents
}

// StepN advances the session by up to max full sweeps (max <= 0 means until
// the run is over) and reports the sweeps executed and whether the session
// is over (see Lockstep.StepN). A sweep without progress jumps the medium's
// clock to its next due entry; with none left it is classified by the
// medium's in-flight count: a genuine deadlock when no message is in
// flight, a stuck run (reported as a timeout) otherwise.
func (s *session) StepN(max int) (sweeps int, done bool, err error) {
	return s.ls.StepN(max)
}

// Result freezes the session's outcome. Valid at any point; the
// classification flags are only meaningful once the session is done.
func (s *session) Result() *Result {
	res := newResult(s.ls.Trace, s.med.Stats(), s.steppers)
	res.Deadlocked, res.TimedOut, res.Stopped = s.ls.Deadlocked, s.ls.TimedOut, s.ls.Stopped
	return res
}
