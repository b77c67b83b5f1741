package sim

// The single-entity seam: one protocol entity stepped by a scheduler, one
// transition at a time, on the caller's goroutine. EntityStepper is the
// in-process implementation of the Entity contract; the wire deployment
// (internal/wire) implements the same contract over a control connection to
// an entity running in its own OS process. The lockstep sweep (Lockstep)
// and the witness replayer (Replay) are written against Entity only, so an
// in-process run and a live deployment share every scheduling decision.

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/fsm"
	"repro/internal/lotos"
	"repro/internal/medium"
)

// HarnessSeed derives the seed of a run's default accept-all harness —
// exactly the stream resolveSeeds hands Run. External
// schedulers that host the harness themselves (the wire coordinator) must
// use it to stay execution-identical to an in-process lockstep run.
func HarnessSeed(seed int64) int64 { return subSeed(seed, roleHarness, 0) }

// RunnerSeed derives the scheduling seed of the entity at sorted-place
// index placeIndex — the stream newSteppers hands entity placeIndex.
func RunnerSeed(seed int64, placeIndex int) int64 {
	return subSeed(seed, roleRunner, placeIndex)
}

// StepOutcome reports one step of an entity.
type StepOutcome struct {
	// Progressed reports that the entity executed a transition.
	Progressed bool
	// Done reports successful termination (the δ transition fired); the
	// entity must not be stepped again.
	Done bool
	// HasEvent reports that the step executed the service primitive Event.
	HasEvent bool
	Event    lotos.Event
}

// Entity is one protocol entity as a scheduler sees it: the in-process
// EntityStepper, or a deployed entity process behind its control
// connection.
type Entity interface {
	// Place is the entity's place number.
	Place() int
	// StepOnce attempts one transition, as one lockstep sweep visit.
	StepOnce() (StepOutcome, error)
	// StepExact executes transition tindex of the current row, which must
	// be of kind op (OpRecv also admits OpRecvFlush; OpDelta ignores
	// tindex and takes the entity's δ transition).
	StepExact(tindex int, op fsm.Op) (StepOutcome, error)
	// Enabledness classifies the current transition row.
	Enabledness() (Enabled, error)
}

// EntityStepper drives one protocol entity's machine against a
// medium.Transport. It is single-goroutine state: not safe for concurrent
// use (the machine it reads may be shared by any number of steppers).
type EntityStepper struct {
	place   int
	m       *fsm.Machine
	cur     *fsm.State
	row     *fsm.Row // cur's row once loaded, nil after every move
	med     medium.Transport
	harness Harness
	// The scheduling RNG and its PCG state live in the stepper itself, so
	// building one allocates nothing for them.
	pcg   rand.PCG
	rng   rand.Rand
	cands []int // reused candidate buffer
	done  bool
}

// NewEntityStepper builds the external-scheduler seam for one entity over
// its machine. seed must be RunnerSeed(runSeed, placeIndex) and harness the
// shared run harness for the execution to match an in-process run.
func NewEntityStepper(place int, machine *fsm.Machine, med medium.Transport, harness Harness, seed int64) (*EntityStepper, error) {
	if harness == nil {
		return nil, fmt.Errorf("sim: entity stepper needs a harness")
	}
	if machine == nil {
		return nil, fmt.Errorf("sim: entity %d has no machine", place)
	}
	return newEntityStepper(place, machine, med, harness, seed), nil
}

func newEntityStepper(place int, machine *fsm.Machine, med medium.Transport, harness Harness, seed int64) *EntityStepper {
	e := &EntityStepper{place: place, m: machine, cur: machine.Root(), med: med, harness: harness, pcg: *newPCG(seed)}
	e.rng = *rand.New(&e.pcg)
	return e
}

// Place implements Entity.
func (e *EntityStepper) Place() int { return e.place }

// Describe renders the entity's current state for diagnostics.
func (e *EntityStepper) Describe() string {
	if e.done {
		return "terminated"
	}
	return e.cur.Key()
}

// load makes the current state's row addressable.
func (e *EntityStepper) load() (*fsm.Row, error) {
	if e.row == nil {
		r, err := e.m.Row(e.cur)
		if err != nil {
			return nil, err
		}
		e.row = r
	}
	return e.row, nil
}

// StepOnce evaluates the current transition row and executes at most one
// transition. After termination it reports Done without stepping. The
// random-choice structure (one optional user-interaction lottery, then a
// uniform pick among executable candidates) is the scheduling contract: a
// row's order is its derivation order, whichever session filled it, so a
// seeded run is one execution in process and live.
func (e *EntityStepper) StepOnce() (StepOutcome, error) {
	if e.done {
		return StepOutcome{Done: true}, nil
	}
	row, err := e.load()
	if err != nil {
		return StepOutcome{}, err
	}
	e.cands = e.cands[:0]
	for i, op := range row.Ops {
		switch op {
		case fsm.OpDelta, fsm.OpInternal, fsm.OpSend:
			e.cands = append(e.cands, i)
		case fsm.OpRecv:
			// Peek: enabled only if the wanted message is consumable. The
			// actual consumption happens in fire, which re-checks
			// (another branch cannot steal it: only this entity consumes
			// this channel).
			if e.med.TryConsumeCheck(medium.WantedBy(e.place, row.Events[i])) {
				e.cands = append(e.cands, i)
			}
		case fsm.OpRecvFlush:
			if e.med.TryConsumeFlushCheck(medium.WantedBy(e.place, row.Events[i])) {
				e.cands = append(e.cands, i)
			}
		}
	}

	// Possibly attempt a user interaction this step. A successful Choose
	// CLAIMS the offer (a scripted harness advances its cursor), so an
	// accepted service primitive must be executed immediately — it may not
	// lose a lottery against the other candidates.
	if offered := row.Offers; len(offered) > 0 {
		attempt := len(e.cands) == 0 || e.rng.IntN(len(e.cands)+1) == len(e.cands)
		if attempt {
			if pick := e.harness.Choose(e.place, offered); pick >= 0 && pick < len(offered) {
				return e.fire(int(row.OfferAt[pick]))
			}
		}
	}

	if len(e.cands) == 0 {
		return StepOutcome{}, nil
	}
	return e.fire(e.cands[e.rng.IntN(len(e.cands))])
}

// StepExact executes transition tindex of the current row, validating that
// its dispatch kind matches want — the entity face of witness replay.
func (e *EntityStepper) StepExact(tindex int, want fsm.Op) (StepOutcome, error) {
	if e.done {
		return StepOutcome{}, fmt.Errorf("entity %d already terminated", e.place)
	}
	row, err := e.load()
	if err != nil {
		return StepOutcome{}, err
	}
	if want == fsm.OpDelta {
		// Global termination: take the entity's δ transition regardless of
		// tindex (the witness's δ step is a single global transition).
		for i, op := range row.Ops {
			if op == fsm.OpDelta {
				return e.fire(i)
			}
		}
		return StepOutcome{}, fmt.Errorf("entity %d cannot terminate", e.place)
	}
	if tindex < 0 || tindex >= len(row.Ops) {
		return StepOutcome{}, fmt.Errorf("entity %d has %d transitions, step selects #%d", e.place, len(row.Ops), tindex)
	}
	op := row.Ops[tindex]
	if op != want && !(want == fsm.OpRecv && op == fsm.OpRecvFlush) {
		return StepOutcome{}, fmt.Errorf("entity %d transition #%d is %s, not %s", e.place, tindex, op, want)
	}
	if b, ok := e.med.(bounded); ok && op == fsm.OpSend {
		if err := b.admitSend(e.place, row.Events[tindex].Place); err != nil {
			return StepOutcome{}, err
		}
	}
	return e.fire(tindex)
}

// bounded is a medium whose channels have a capacity (the witness replay
// medium): a send into a full channel is not a step of the composition.
// The simulation medium is unbounded.
type bounded interface {
	// admitSend reports why channel from->to cannot take one more message
	// (nil when it can).
	admitSend(from, to int) error
}

// fire performs transition i of the current (loaded) row: its side effect
// on the medium, then the move to its target.
func (e *EntityStepper) fire(i int) (StepOutcome, error) {
	out := StepOutcome{Progressed: true}
	ev := e.row.Events[i]
	switch op := e.row.Ops[i]; op {
	case fsm.OpDelta:
		e.done = true
		out.Done = true
	case fsm.OpInternal:
	case fsm.OpSend:
		e.med.Send(medium.MessageFor(e.place, ev))
	case fsm.OpRecv, fsm.OpRecvFlush:
		want := medium.WantedBy(e.place, ev)
		consumed := false
		if op == fsm.OpRecvFlush {
			consumed = e.med.TryConsumeFlush(want)
		} else {
			consumed = e.med.TryConsume(want)
		}
		if !consumed {
			return StepOutcome{}, fmt.Errorf("entity %d cannot consume %s", e.place, want)
		}
	case fsm.OpService:
		out.HasEvent, out.Event = true, ev
	default:
		return StepOutcome{}, fmt.Errorf("entity %d: unexpected transition op %s", e.place, op)
	}
	e.cur, e.row = e.row.To[i], nil
	return out, nil
}

// Enabled classifies an entity's current transition row for a global
// quiescence check; globalEnabled combines the per-entity reports into the
// composition-level verdict. SendTargets lists the destination place of
// every send transition (enabledness of a send is a global question — it
// depends on the receiver's queue occupancy against the channel capacity —
// so the entity only reports the offer).
type Enabled struct {
	// Delta reports a successful-termination transition.
	Delta bool
	// Local reports an internal transition or a service-primitive offer —
	// always executable, so any entity with Local set is not quiescent.
	Local bool
	// RecvReady reports a receive transition whose wanted message is
	// currently consumable from the entity's medium.
	RecvReady bool
	// SendTargets are the destination places of the row's send transitions.
	SendTargets []int
}

// Enabledness computes the entity's current Enabled report.
func (e *EntityStepper) Enabledness() (Enabled, error) {
	var en Enabled
	if e.done {
		return en, nil
	}
	row, err := e.load()
	if err != nil {
		return en, err
	}
	for i, op := range row.Ops {
		switch op {
		case fsm.OpDelta:
			en.Delta = true
		case fsm.OpInternal, fsm.OpService:
			en.Local = true
		case fsm.OpSend:
			en.SendTargets = append(en.SendTargets, row.Events[i].Place)
		case fsm.OpRecv:
			if e.med.TryConsumeCheck(medium.WantedBy(e.place, row.Events[i])) {
				en.RecvReady = true
			}
		case fsm.OpRecvFlush:
			if e.med.TryConsumeFlushCheck(medium.WantedBy(e.place, row.Events[i])) {
				en.RecvReady = true
			}
		}
	}
	return en, nil
}
