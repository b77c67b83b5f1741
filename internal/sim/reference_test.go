package sim

// The SOS reference: an entity interpreted straight from its syntax tree,
// every transition row re-derived with lts.Env.Transitions on every step —
// the interpreter the lazily tabled machines replaced. It implements the
// Entity contract with its own copy of EntityStepper's scheduling (one
// optional user-interaction lottery, then a uniform pick among executable
// candidates), so a lockstep run over reference entities is an independent
// re-execution of a seeded session that shares no row, state or table code
// with internal/fsm beyond the Classify rule.

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/fsm"
	"repro/internal/lotos"
	"repro/internal/lts"
	"repro/internal/medium"
)

type refEntity struct {
	place   int
	env     *lts.Env
	cur     lotos.Expr
	ts      []lts.Transition
	med     medium.Transport
	harness Harness
	rng     *rand.Rand
	cands   []int
	done    bool
}

func newRefEntity(place int, sp *lotos.Spec, med medium.Transport, harness Harness, seed int64) (*refEntity, error) {
	clone := lotos.CloneSpec(sp)
	env, err := lts.EnvFor(clone)
	if err != nil {
		return nil, err
	}
	return &refEntity{place: place, env: env, cur: clone.Root.Expr, med: med, harness: harness, rng: rand.New(newPCG(seed))}, nil
}

func (e *refEntity) Place() int { return e.place }

func (e *refEntity) reload() error {
	ts, err := e.env.Transitions(e.cur)
	e.ts = ts
	return err
}

func (e *refEntity) op(i int) (fsm.Op, lotos.Event) { return fsm.Classify(e.ts[i].Label) }

func (e *refEntity) StepOnce() (StepOutcome, error) {
	if e.done {
		return StepOutcome{Done: true}, nil
	}
	if err := e.reload(); err != nil {
		return StepOutcome{}, err
	}
	e.cands = e.cands[:0]
	var offered []lotos.Event
	var offeredAt []int
	for i := range e.ts {
		switch op, ev := e.op(i); op {
		case fsm.OpDelta, fsm.OpInternal, fsm.OpSend:
			e.cands = append(e.cands, i)
		case fsm.OpRecv:
			if e.med.TryConsumeCheck(medium.WantedBy(e.place, ev)) {
				e.cands = append(e.cands, i)
			}
		case fsm.OpRecvFlush:
			if e.med.TryConsumeFlushCheck(medium.WantedBy(e.place, ev)) {
				e.cands = append(e.cands, i)
			}
		case fsm.OpService:
			offered, offeredAt = append(offered, ev), append(offeredAt, i)
		}
	}
	if len(offered) > 0 {
		if len(e.cands) == 0 || e.rng.IntN(len(e.cands)+1) == len(e.cands) {
			if pick := e.harness.Choose(e.place, offered); pick >= 0 && pick < len(offered) {
				return e.fire(offeredAt[pick])
			}
		}
	}
	if len(e.cands) == 0 {
		return StepOutcome{}, nil
	}
	return e.fire(e.cands[e.rng.IntN(len(e.cands))])
}

func (e *refEntity) StepExact(tindex int, want fsm.Op) (StepOutcome, error) {
	if err := e.reload(); err != nil {
		return StepOutcome{}, err
	}
	if want == fsm.OpDelta {
		for i := range e.ts {
			if op, _ := e.op(i); op == fsm.OpDelta {
				return e.fire(i)
			}
		}
		return StepOutcome{}, fmt.Errorf("entity %d cannot terminate", e.place)
	}
	if tindex < 0 || tindex >= len(e.ts) {
		return StepOutcome{}, fmt.Errorf("entity %d has %d transitions, step selects #%d", e.place, len(e.ts), tindex)
	}
	if op, _ := e.op(tindex); op != want && !(want == fsm.OpRecv && op == fsm.OpRecvFlush) {
		return StepOutcome{}, fmt.Errorf("entity %d transition #%d is %s, not %s", e.place, tindex, op, want)
	}
	return e.fire(tindex)
}

func (e *refEntity) fire(i int) (StepOutcome, error) {
	out := StepOutcome{Progressed: true}
	switch op, ev := e.op(i); op {
	case fsm.OpDelta:
		e.done, out.Done = true, true
	case fsm.OpSend:
		e.med.Send(medium.MessageFor(e.place, ev))
	case fsm.OpRecv:
		if !e.med.TryConsume(medium.WantedBy(e.place, ev)) {
			return StepOutcome{}, fmt.Errorf("entity %d cannot consume %s", e.place, ev)
		}
	case fsm.OpRecvFlush:
		if !e.med.TryConsumeFlush(medium.WantedBy(e.place, ev)) {
			return StepOutcome{}, fmt.Errorf("entity %d cannot consume %s", e.place, ev)
		}
	case fsm.OpService:
		out.HasEvent, out.Event = true, ev
	}
	e.cur = e.ts[i].To
	return out, nil
}

func (e *refEntity) Enabledness() (Enabled, error) {
	var en Enabled
	if e.done {
		return en, nil
	}
	if err := e.reload(); err != nil {
		return en, err
	}
	for i := range e.ts {
		switch op, ev := e.op(i); op {
		case fsm.OpDelta:
			en.Delta = true
		case fsm.OpInternal, fsm.OpService:
			en.Local = true
		case fsm.OpSend:
			en.SendTargets = append(en.SendTargets, ev.Place)
		case fsm.OpRecv:
			en.RecvReady = en.RecvReady || e.med.TryConsumeCheck(medium.WantedBy(e.place, ev))
		case fsm.OpRecvFlush:
			en.RecvReady = en.RecvReady || e.med.TryConsumeFlushCheck(medium.WantedBy(e.place, ev))
		}
	}
	return en, nil
}

// runOutcome is what the differential compares of a lockstep run: the
// trace, the outcome flags, the medium counters and the sweep count.
type runOutcome struct {
	Trace                                          []string
	Completed, Deadlocked, TimedOut, Stopped, Over bool
	Medium                                         medium.Stats
	Sweeps                                         int
}

// sweepBudget bounds a differential run in sweeps rather than wall-clock
// time, so both sides stop at the same point.
const sweepBudget = 20000

// runReference runs a seeded lockstep session over reference entities for
// up to sweepBudget sweeps: the same seeds, harness and medium as a session
// with cfg.
func runReference(t testing.TB, entities map[int]*lotos.Spec, cfg Config) (runOutcome, error) {
	t.Helper()
	cfg = resolveSeeds(cfg)
	med := medium.New(cfg.Medium)
	var ents []Entity
	for i, p := range entityPlaces(entities) {
		e, err := newRefEntity(p, entities[p], med, cfg.Harness, subSeed(cfg.Seed, roleRunner, i))
		if err != nil {
			return runOutcome{}, err
		}
		ents = append(ents, e)
	}
	ls := NewLockstep(ents, cfg.MaxEvents, func() (int, error) { return med.InFlight(), nil }, med)
	_, over, err := ls.StepN(sweepBudget)
	if err != nil {
		return runOutcome{}, err
	}
	out := runOutcome{Completed: ls.Completed(), Deadlocked: ls.Deadlocked, TimedOut: ls.TimedOut,
		Stopped: ls.Stopped, Over: over, Medium: med.Stats(), Sweeps: ls.Sweeps, Trace: []string{}}
	for _, te := range ls.Trace {
		out.Trace = append(out.Trace, te.String())
	}
	return out, nil
}

// runMachines runs the same session as runReference over machine steppers
// (cfg.Fleet's, or machines built for the entities), returning the session
// result too.
func runMachines(t testing.TB, entities map[int]*lotos.Spec, cfg Config) (runOutcome, *Result, error) {
	t.Helper()
	s, err := newSession(entities, cfg)
	if err != nil {
		return runOutcome{}, nil, err
	}
	_, over, err := s.StepN(sweepBudget)
	if err != nil {
		return runOutcome{}, nil, err
	}
	res := s.Result()
	return runOutcome{Trace: res.TraceStrings(), Completed: res.Completed, Deadlocked: res.Deadlocked,
		TimedOut: res.TimedOut, Stopped: res.Stopped, Over: over, Medium: res.Medium, Sweeps: s.ls.Sweeps}, res, nil
}
