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
// Replay drives the same Entity contract as the lockstep scheduler, so one
// step loop replays a witness in process or through a live deployment
// (internal/wire). Machine rows keep derivation order, so the TIndex a
// witness step pins selects the transition the exploration numbered.

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

// ReplayWitness re-executes a counterexample through machines built for the
// entities and returns what the concrete system did. Each witness step is
// validated against the entity's transition row (the step's TIndex must
// select a transition of the step's kind) or against the medium's queues (a
// fault step must find its queue position occupied); any mismatch is an
// error — the witness does not describe a real execution.
func ReplayWitness(entities map[int]*lotos.Spec, w *compose.Witness) (*ReplayResult, error) {
	return ReplayFleet(fsm.CompileEntities(entities, fsm.Config{}), w)
}

// ReplayFleet is ReplayWitness over a fleet's machines, which may be shared
// with other sessions.
func ReplayFleet(fleet *fsm.Fleet, w *compose.Witness) (*ReplayResult, error) {
	if w == nil {
		return nil, fmt.Errorf("sim: nil witness")
	}
	med := &replayMedium{Medium: medium.New(medium.Config{}), cap: channelCap(w)}
	steppers, err := newSteppers(nil, fleetPlaces(fleet), med, Config{Fleet: fleet})
	if err != nil {
		return nil, err
	}
	res, err := Replay(asEntities(steppers), med, w)
	if err != nil {
		return nil, err
	}
	res.MediumStats = med.Stats()
	return res, nil
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

// channelCap is the medium capacity a witness was found under.
func channelCap(w *compose.Witness) int {
	if w.ChannelCap <= 0 {
		return compose.DefaultChannelCap
	}
	return w.ChannelCap
}

// WitnessMedium is the medium side of a witness replay: the in-process
// medium, or the live wire with its fault-injection proxies
// (internal/wire).
type WitnessMedium interface {
	// Fault realizes one loss, duplication or reordering step.
	Fault(st compose.WitnessStep) error
	// QueueLen returns the number of messages queued on channel from->to.
	QueueLen(from, to int) (int, error)
	// Swappable reports that channel from->to holds two adjacent distinct
	// messages, so a reordering fault would change it.
	Swappable(from, to int) bool
}

// witnessOps maps an entity step kind to the kind of transition it fires.
var witnessOps = map[string]fsm.Op{
	compose.StepInternal: fsm.OpInternal,
	compose.StepService:  fsm.OpService,
	compose.StepSend:     fsm.OpSend,
	compose.StepRecv:     fsm.OpRecv,
}

// Replay drives witness w step for step through entities (ascending place
// order) and med — the one witness replayer behind ReplayWitness and the
// wire coordinator's live replay. Entity steps are exact grants (the
// witness's TIndex selects the transition, its kind validates it); medium
// faults go to med; the global δ terminates every entity. After the last
// step, a replay that did not terminate is checked for the deadlock the
// witness may claim.
func Replay(entities []Entity, med WitnessMedium, w *compose.Witness) (*ReplayResult, error) {
	if w == nil {
		return nil, fmt.Errorf("sim: nil witness")
	}
	// A service with no primitives derives zero entities; its (empty)
	// composed system is a root deadlock and the witness has no steps, so
	// replay degenerates to the final enabledness check.
	res := &ReplayResult{}
	for i, st := range w.Steps {
		if err := replayStep(entities, med, st, res); err != nil {
			return nil, fmt.Errorf("sim: witness step %d [%s] %s: %w", i+1, st.Kind, st.Label, err)
		}
		res.Steps++
	}
	if !res.Terminated {
		enabled, err := globalEnabled(entities, med, channelCap(w), w.Faults)
		if err != nil {
			return nil, err
		}
		res.Deadlocked = !enabled
	}
	return res, nil
}

// replayStep executes one witness step against the concrete system.
func replayStep(entities []Entity, med WitnessMedium, st compose.WitnessStep, res *ReplayResult) error {
	switch st.Kind {
	case compose.StepLoss, compose.StepDuplicate, compose.StepReorder:
		return med.Fault(st)
	case compose.StepDelta:
		for _, e := range entities {
			if _, err := e.StepExact(0, fsm.OpDelta); err != nil {
				return err
			}
		}
		res.Trace = append(res.Trace, "delta")
		res.Terminated = true
		return nil
	}
	var e Entity
	for _, c := range entities {
		if c.Place() == st.Place {
			e = c
		}
	}
	if e == nil {
		return fmt.Errorf("witness names unknown entity %d", st.Place)
	}
	op, ok := witnessOps[st.Kind]
	if !ok {
		return fmt.Errorf("unknown witness step kind %q", st.Kind)
	}
	out, err := e.StepExact(st.TIndex, op)
	if err != nil {
		return err
	}
	if out.HasEvent {
		res.Trace = append(res.Trace, out.Event.String())
	}
	return nil
}

// globalEnabled decides the composition's global-transition enabledness at
// the current state — the one place per-entity Enabled reports are
// combined: an entity internal action or service primitive, a receive whose
// message is consumable, a send with channel capacity left, a global δ
// (every entity termination-ready), or a fault of the model applicable to
// some queue.
func globalEnabled(entities []Entity, med WitnessMedium, cap int, faults compose.FaultModel) (bool, error) {
	deltaReady := 0
	for _, e := range entities {
		en, err := e.Enabledness()
		if err != nil {
			return false, err
		}
		if en.Local || en.RecvReady {
			return true, nil
		}
		for _, to := range en.SendTargets {
			n, err := med.QueueLen(e.Place(), to)
			if err != nil {
				return false, err
			}
			if n < cap {
				return true, nil
			}
		}
		if en.Delta {
			deltaReady++
		}
	}
	if deltaReady == len(entities) && len(entities) > 0 {
		return true, nil
	}
	if !faults.Any() {
		return false, nil
	}
	for _, from := range entities {
		for _, to := range entities {
			if from.Place() == to.Place() {
				continue
			}
			n, err := med.QueueLen(from.Place(), to.Place())
			if err != nil {
				return false, err
			}
			if n > 0 && (faults.Loss || faults.Duplication && n < cap ||
				faults.Reorder && med.Swappable(from.Place(), to.Place())) {
				return true, nil
			}
		}
	}
	return false, nil
}

// replayMedium is the in-process witness medium: the immediate medium with
// the witness's channel capacity enforced on sends and duplications, and
// targeted DropAt/DuplicateAt/SwapAt calls reproducing the fault steps.
type replayMedium struct {
	*medium.Medium
	cap int
}

func (m *replayMedium) admitSend(from, to int) error {
	if len(m.Pending(from, to)) >= m.cap {
		return fmt.Errorf("channel %d->%d is at capacity %d, send blocks", from, to, m.cap)
	}
	return nil
}

// QueueLen implements WitnessMedium.
func (m *replayMedium) QueueLen(from, to int) (int, error) { return len(m.Pending(from, to)), nil }

// Swappable implements WitnessMedium.
func (m *replayMedium) Swappable(from, to int) bool {
	q := m.Pending(from, to)
	for i := 0; i+1 < len(q); i++ {
		if q[i] != q[i+1] {
			return true
		}
	}
	return false
}

// Fault implements WitnessMedium.
func (m *replayMedium) Fault(st compose.WitnessStep) error {
	switch st.Kind {
	case compose.StepLoss:
		if !m.DropAt(st.From, st.To, st.Index) {
			return fmt.Errorf("channel %d->%d has no message at position %d", st.From, st.To, st.Index)
		}
	case compose.StepDuplicate:
		if len(m.Pending(st.From, st.To)) >= m.cap {
			return fmt.Errorf("channel %d->%d is at capacity %d, duplication not enabled", st.From, st.To, m.cap)
		}
		if !m.DuplicateAt(st.From, st.To, st.Index) {
			return fmt.Errorf("channel %d->%d has no message at position %d", st.From, st.To, st.Index)
		}
	case compose.StepReorder:
		if !m.SwapAt(st.From, st.To, st.Index) {
			return fmt.Errorf("channel %d->%d has no adjacent pair at position %d", st.From, st.To, st.Index)
		}
	}
	return nil
}
