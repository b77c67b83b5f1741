package sim

// This file implements counterexample replay: it re-executes a
// compose.Witness step-for-step through a runtime entity engine and the
// medium, confirming that the abstract counterexample found by state-space
// exploration is a real execution of the concrete system. Replay is fully
// deterministic: the witness pins every choice (which entity moves, which
// local transition fires, which medium fault strikes which queue position),
// and the medium runs with zero delay and no random faults — targeted
// DropAt/DuplicateAt/SwapAt calls reproduce the fault events instead.
//
// Replay runs on the same stepper abstraction as the simulator, so a witness
// can be replayed through either engine: the compiled tables preserve
// per-state transition order (the TIndex a witness step pins selects the
// same transition in both), which the FSM replay regression suite checks
// across the whole fault-matrix corpus.

import (
	"fmt"
	"sort"

	"repro/internal/compose"
	"repro/internal/fsm"
	"repro/internal/lotos"
	"repro/internal/medium"
)

// ReplayResult is the outcome of replaying a witness.
type ReplayResult struct {
	// Trace is the observable projection of the replayed execution: the
	// service primitives fired, plus a final "delta" on termination. It
	// must equal the witness's Trace.
	Trace []string
	// Terminated reports that the replay ended in global successful
	// termination (the witness path took the δ transition).
	Terminated bool
	// Deadlocked reports that after the final step no entity move, no
	// global δ, and no fault of the witness's model is enabled — the
	// deadlock the witness claims.
	Deadlocked bool
	// Steps is the number of witness steps executed.
	Steps int
	// MediumStats snapshots the medium counters after the replay (sent,
	// delivered, dropped, duplicated, reordered, flushed).
	MediumStats medium.Stats
}

// replayer holds the concrete system state during a witness replay.
type replayer struct {
	places []int
	steps  map[int]stepper
	med    *medium.Medium
	cap    int
	faults compose.FaultModel
}

// ReplayWitness re-executes a counterexample through the AST interpreter
// and returns what the concrete system did. Each witness step is validated
// against the entity's derived transitions (the step's TIndex must select a
// transition of the step's kind) or against the medium's queues (a fault
// step must find its queue position occupied); any mismatch is an error —
// the witness does not describe a real execution.
func ReplayWitness(entities map[int]*lotos.Spec, w *compose.Witness) (*ReplayResult, error) {
	return ReplayWitnessEngine(entities, w, EngineAST, nil)
}

// ReplayWitnessEngine is ReplayWitness with an engine choice. Under
// EngineFSM the entities run compiled (fleet is compiled on the spot when
// nil), with per-entity AST fallback on compilation failure.
func ReplayWitnessEngine(entities map[int]*lotos.Spec, w *compose.Witness, engine Engine, fleet *fsm.Fleet) (*ReplayResult, error) {
	if w == nil {
		return nil, fmt.Errorf("sim: nil witness")
	}
	// A service with no primitives derives zero entities; its (empty)
	// composed system is a root deadlock and the witness has no steps, so
	// replay degenerates to the final enabledness check.
	rp := &replayer{
		steps:  map[int]stepper{},
		med:    medium.New(medium.Config{}),
		cap:    w.ChannelCap,
		faults: w.Faults,
	}
	if rp.cap <= 0 {
		rp.cap = compose.DefaultChannelCap
	}
	defer rp.med.Close()
	if engine == EngineFSM && fleet == nil {
		fleet = fsm.CompileEntities(entities, fsm.Config{})
	}
	for p, sp := range entities {
		var st stepper
		if engine == EngineFSM {
			if m := fleet.Machines[p]; m != nil {
				st = newFSMStepper(m)
			}
		}
		if st == nil {
			ast, err := newASTStepper(p, sp)
			if err != nil {
				return nil, err
			}
			st = ast
		}
		rp.places = append(rp.places, p)
		rp.steps[p] = st
	}
	sort.Ints(rp.places)

	res := &ReplayResult{}
	for i, st := range w.Steps {
		if err := rp.step(st, res); err != nil {
			return nil, fmt.Errorf("sim: witness step %d [%s] %s: %w", i+1, st.Kind, st.Label, err)
		}
		res.Steps++
	}
	if !res.Terminated {
		enabled, err := rp.anyEnabled()
		if err != nil {
			return nil, err
		}
		res.Deadlocked = !enabled
	}
	res.MediumStats = rp.med.Stats()
	return res, nil
}

// step executes one witness step against the concrete system.
func (rp *replayer) step(st compose.WitnessStep, res *ReplayResult) error {
	switch st.Kind {
	case compose.StepDelta:
		for _, p := range rp.places {
			s := rp.steps[p]
			n, err := s.reload()
			if err != nil {
				return err
			}
			found := false
			for i := 0; i < n; i++ {
				if s.op(i) == fsm.OpDelta {
					if err := s.advance(i); err != nil {
						return err
					}
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("entity %d cannot terminate", p)
			}
		}
		res.Trace = append(res.Trace, "delta")
		res.Terminated = true
		return nil
	case compose.StepLoss:
		if !rp.med.DropAt(st.From, st.To, st.Index) {
			return fmt.Errorf("channel %d->%d has no message at position %d", st.From, st.To, st.Index)
		}
		return nil
	case compose.StepDuplicate:
		if len(rp.med.Pending(st.From, st.To)) >= rp.cap {
			return fmt.Errorf("channel %d->%d is at capacity %d, duplication not enabled", st.From, st.To, rp.cap)
		}
		if !rp.med.DuplicateAt(st.From, st.To, st.Index) {
			return fmt.Errorf("channel %d->%d has no message at position %d", st.From, st.To, st.Index)
		}
		return nil
	case compose.StepReorder:
		if !rp.med.SwapAt(st.From, st.To, st.Index) {
			return fmt.Errorf("channel %d->%d has no adjacent pair at position %d", st.From, st.To, st.Index)
		}
		return nil
	}

	// Entity step: the TIndex selects the fired transition in derivation
	// order — the same order compose's exploration caches and the compiled
	// tables preserve.
	s, ok := rp.steps[st.Place]
	if !ok {
		return fmt.Errorf("witness names unknown entity %d", st.Place)
	}
	n, err := s.reload()
	if err != nil {
		return err
	}
	if st.TIndex < 0 || st.TIndex >= n {
		return fmt.Errorf("entity %d has %d transitions, witness selects #%d", st.Place, n, st.TIndex)
	}
	op, ev := s.op(st.TIndex), s.ev(st.TIndex)
	switch st.Kind {
	case compose.StepInternal:
		if op != fsm.OpInternal {
			return fmt.Errorf("entity %d transition #%d is %s, not internal", st.Place, st.TIndex, op)
		}
	case compose.StepService:
		if op != fsm.OpService {
			return fmt.Errorf("entity %d transition #%d is %s, not a service primitive", st.Place, st.TIndex, op)
		}
		res.Trace = append(res.Trace, ev.String())
	case compose.StepSend:
		if op != fsm.OpSend {
			return fmt.Errorf("entity %d transition #%d is %s, not a send", st.Place, st.TIndex, op)
		}
		if len(rp.med.Pending(st.Place, ev.Place)) >= rp.cap {
			return fmt.Errorf("channel %d->%d is at capacity %d, send blocks", st.Place, ev.Place, rp.cap)
		}
		rp.med.Send(medium.MessageFor(st.Place, ev))
	case compose.StepRecv:
		if op != fsm.OpRecv && op != fsm.OpRecvFlush {
			return fmt.Errorf("entity %d transition #%d is %s, not a receive", st.Place, st.TIndex, op)
		}
		want := medium.WantedBy(st.Place, ev)
		consumed := false
		if op == fsm.OpRecvFlush {
			consumed = rp.med.TryConsumeFlush(want)
		} else {
			consumed = rp.med.TryConsume(want)
		}
		if !consumed {
			return fmt.Errorf("entity %d cannot consume %s", st.Place, want)
		}
	default:
		return fmt.Errorf("unknown witness step kind %q", st.Kind)
	}
	return s.advance(st.TIndex)
}

// anyEnabled mirrors the composition's global-transition enabledness at the
// replayer's current state: an entity internal action or service primitive,
// a send with channel capacity left, a receive whose message is consumable,
// a global δ (every entity termination-ready), or a fault of the witness's
// model applicable to some queue.
func (rp *replayer) anyEnabled() (bool, error) {
	deltaReady := 0
	for _, p := range rp.places {
		s := rp.steps[p]
		n, err := s.reload()
		if err != nil {
			return false, err
		}
		sawDelta := false
		for i := 0; i < n; i++ {
			switch s.op(i) {
			case fsm.OpDelta:
				sawDelta = true
			case fsm.OpInternal, fsm.OpService:
				return true, nil
			case fsm.OpSend:
				if len(rp.med.Pending(p, s.ev(i).Place)) < rp.cap {
					return true, nil
				}
			case fsm.OpRecv:
				if rp.med.TryConsumeCheck(medium.WantedBy(p, s.ev(i))) {
					return true, nil
				}
			case fsm.OpRecvFlush:
				if rp.med.TryConsumeFlushCheck(medium.WantedBy(p, s.ev(i))) {
					return true, nil
				}
			}
		}
		if sawDelta {
			deltaReady++
		}
	}
	if deltaReady == len(rp.places) && len(rp.places) > 0 {
		return true, nil
	}
	if rp.faults.Any() {
		for _, from := range rp.places {
			for _, to := range rp.places {
				if from == to {
					continue
				}
				q := rp.med.Pending(from, to)
				if len(q) == 0 {
					continue
				}
				if rp.faults.Loss {
					return true, nil
				}
				if rp.faults.Duplication && len(q) < rp.cap {
					return true, nil
				}
				if rp.faults.Reorder {
					for i := 0; i+1 < len(q); i++ {
						if q[i] != q[i+1] {
							return true, nil
						}
					}
				}
			}
		}
	}
	return false, nil
}
