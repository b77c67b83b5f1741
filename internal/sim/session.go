package sim

// The Session seam: one protocol execution advanced synchronously, a sweep
// at a time, on the caller's goroutine — no per-entity goroutines, no
// timers, no wall clock. It is the Lockstep scheduler over in-process
// EntitySteppers as a resumable object, so a discrete-event driver
// (internal/cluster) can interleave thousands to millions of concurrent
// sessions on one virtual clock: each session is paused between sweeps at
// zero cost, and advancing it never blocks or sleeps.
//
// A Session with seed s is the same execution as Run with Config{Seed: s,
// ...}: Run is a Session run to completion. That identity is what makes any
// single cluster session replayable through the ordinary simulator.

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
// fleet's machines, building machines for the entities when cfg.Fleet is
// nil.
func newSteppers(entities map[int]*lotos.Spec, places []int, med medium.Transport, cfg Config) ([]*EntityStepper, error) {
	fleet := cfg.Fleet
	if fleet == nil {
		fleet = fsm.CompileEntities(entities, cfg.Compile)
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
		steppers[i] = newEntityStepper(p, m, med, cfg.Harness, SubSeed(cfg.Seed, roleRunner, i))
	}
	return steppers, nil
}

// Session is one protocol execution stepped synchronously by its caller.
// It is single-goroutine state: not safe for concurrent use, but millions
// of independent Sessions may be advanced by one driver loop.
type Session struct {
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

// NewSession builds a synchronous session over the entities. Every Config
// field but Timeout (which only Run's wall-clock budget reads) behaves as
// in Run. The caller advances it with StepN and should Close it when done.
func NewSession(entities map[int]*lotos.Spec, cfg Config) (*Session, error) {
	return newSession(entities, entityPlaces(entities), cfg)
}

// NewFleetSession builds a synchronous session over a fleet's machines, so
// sessions share the machines' rows and need no per-session copy of the
// entity syntax trees — the memory contract that makes million-session
// fleets affordable. cfg.Fleet is overridden by the argument.
func NewFleetSession(fleet *fsm.Fleet, cfg Config) (*Session, error) {
	cfg.Fleet = fleet
	places := fleetPlaces(fleet)
	if len(places) == 0 {
		return nil, fmt.Errorf("sim: fleet session over an empty fleet")
	}
	return newSession(nil, places, cfg)
}

// fleetPlaces returns the sorted places of a fleet, those whose entity did
// not resolve included (newSteppers reports their error).
func fleetPlaces(fleet *fsm.Fleet) []int {
	places := make([]int, 0, len(fleet.Machines)+len(fleet.Errors))
	for p := range fleet.Machines {
		places = append(places, p)
	}
	for p := range fleet.Errors {
		places = append(places, p)
	}
	sort.Ints(places)
	return places
}

// newSession derives the config's harness and medium sub-seeds and builds
// the session's medium and steppers.
func newSession(entities map[int]*lotos.Spec, places []int, cfg Config) (*Session, error) {
	cfg = resolveSeeds(cfg)
	var med transport
	if cfg.Reliable {
		med = medium.NewReliable(cfg.Medium)
	} else {
		med = medium.New(cfg.Medium)
	}
	steppers, err := newSteppers(entities, places, med, cfg)
	if err != nil {
		return nil, err
	}
	inFlight := func() (int, error) { return med.InFlight(), nil }
	return &Session{ls: NewLockstep(asEntities(steppers), cfg.MaxEvents, inFlight, med), steppers: steppers, med: med}, nil
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
func (s *Session) StepN(max int) (sweeps int, done bool, err error) {
	return s.ls.StepN(max)
}

// Done reports whether the session is over.
func (s *Session) Done() bool { return s.ls.over }

// Sweeps returns the total number of sweeps executed so far — the session's
// work measure (the cluster simulator prices virtual service time by it).
func (s *Session) Sweeps() int { return s.ls.Sweeps }

// Events returns the number of service primitives executed so far.
func (s *Session) Events() int { return len(s.ls.Trace) }

// MediumStats snapshots the session medium's counters.
func (s *Session) MediumStats() medium.Stats { return s.med.Stats() }

// Result freezes the session's outcome. Valid at any point; the
// classification flags are only meaningful once the session is done.
func (s *Session) Result() *Result {
	res := newResult(s.ls.Trace, s.med.Stats(), s.steppers)
	res.Deadlocked, res.TimedOut, res.Stopped = s.ls.Deadlocked, s.ls.TimedOut, s.ls.Stopped
	return res
}

// Close ends the session. The session must not be stepped afterwards.
func (s *Session) Close() { s.ls.over = true }
