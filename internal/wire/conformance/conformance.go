// Package conformance checks a live deployment against its service
// specification from the outside: it takes the per-entity observable-trace
// logs a wire deployment emits, merges them into the global observable
// trace, and replays that trace against the service LTS — the
// service/implementation analysis view of the paper's correctness theorem,
// applied to recorded executions instead of state spaces.
//
// The merge is sound because the coordinator assigns each executed service
// primitive a unique global sequence number before the executing entity may
// take another step: the sequence order IS the global execution order, so
// sorting the union of the per-entity records by sequence number
// reconstructs exactly the trace an omniscient observer would have written
// down. Gaps in the sequence numbers, missing end markers and restart
// markers all mean some entity's observations are missing — such a trace is
// classified incomplete (its contiguous prefix must still be a service
// trace) rather than rejected.
package conformance

import (
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/lotos"
	"repro/internal/lts"
	"repro/internal/wire"
)

// Verdict classifies one checked deployment session.
type Verdict string

const (
	// VerdictAccepted: the merged trace is a weak trace of the service (and
	// the session outcome is consistent with it).
	VerdictAccepted Verdict = "accepted"
	// VerdictIncomplete: observations are missing (sequence gaps, missing
	// end records, restart markers, aborted sessions); the recorded prefix
	// is a service trace, so nothing observed contradicts the service.
	VerdictIncomplete Verdict = "incomplete"
	// VerdictDeadlock: the session came to a quiescent standstill in a
	// non-final state — the trace is a service trace, but the service
	// cannot terminate there.
	VerdictDeadlock Verdict = "deadlock"
	// VerdictViolation: the recorded observations contradict the service —
	// a non-service trace, a termination the service does not allow, or a
	// corrupted log.
	VerdictViolation Verdict = "violation"
	// VerdictInconclusive: the check could not decide — the trace (or its
	// termination) was not found in the service graph, but the state cap cut
	// that graph short of the observable-depth bound, so the missing path
	// may lie past the cap. A larger cap decides it.
	VerdictInconclusive Verdict = "inconclusive"
)

// Report is the outcome of checking one session's trace logs.
type Report struct {
	// Verdict is the classification; Reason explains it.
	Verdict Verdict
	Reason  string
	// Trace is the merged global observable trace (the contiguous prefix of
	// the sequence numbering).
	Trace []string
	// TraceAccepted reports that Trace is a weak trace of the service —
	// meaningful under every verdict (an incomplete session's prefix may
	// still be checked) except inconclusive, where it is unknown.
	TraceAccepted bool
	// Complete reports that nothing was missing: all logs ended, no gaps,
	// no restarts, no aborts.
	Complete bool
	// Outcome is the session outcome the logs agree on ("" when they are
	// silent or disagree).
	Outcome string
	// Gaps counts missing sequence numbers; Beyond counts recorded events
	// stranded past the first gap; Restarts sums restart markers.
	Gaps     int
	Beyond   int
	Restarts int
}

// Merged is the sequence-number merge of the per-entity logs.
type Merged struct {
	// Trace is the contiguous prefix: events 0..len-1 by global sequence.
	Trace []string
	// Places gives the recording entity of each Trace entry.
	Places []int
	// Gaps counts missing sequence numbers up to the highest recorded one;
	// Beyond counts events recorded past the first gap.
	Gaps   int
	Beyond int
}

// Merge reassembles the global trace from per-entity logs. Duplicate or
// negative sequence numbers are an error — the coordinator assigns each of
// 0, 1, 2, ... exactly once, so such logs are not one session's.
func Merge(logs map[int]*wire.EntityLog) (*Merged, error) {
	type rec struct {
		seq   int
		ev    string
		place int
	}
	var all []rec
	for place, log := range logs {
		for _, e := range log.Events {
			if e.Seq < 0 {
				return nil, fmt.Errorf("conformance: entity %d recorded negative global sequence %d", place, e.Seq)
			}
			all = append(all, rec{seq: e.Seq, ev: e.Event, place: place})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	m := &Merged{}
	next := 0
	for i, r := range all {
		if i > 0 && r.seq == all[i-1].seq {
			return nil, fmt.Errorf("conformance: global sequence %d recorded twice (entities %d and %d)",
				r.seq, all[i-1].place, r.place)
		}
		if r.seq == next && m.Gaps == 0 {
			m.Trace = append(m.Trace, r.ev)
			m.Places = append(m.Places, r.place)
			next++
			continue
		}
		if r.seq > next {
			m.Gaps += r.seq - next
		}
		next = r.seq + 1
		m.Beyond++
	}
	return m, nil
}

// Check classifies one session's entity logs against the service. maxStates
// bounds the service exploration (the LTS is explored only to the trace's
// observable depth, so recursive services check fine).
func Check(service *lotos.Spec, logs map[int]*wire.EntityLog, maxStates int) (*Report, error) {
	if len(logs) == 0 {
		return nil, fmt.Errorf("conformance: no entity logs")
	}
	rep := &Report{}
	for place, log := range logs {
		if !log.Started {
			return nil, fmt.Errorf("conformance: entity %d log has no start record", place)
		}
		if !log.DigestOK {
			rep.Verdict = VerdictViolation
			rep.Reason = fmt.Sprintf("entity %d log fails its digest chain (corrupt or tampered)", place)
			return rep, nil
		}
		rep.Restarts += log.Restarts
	}
	merged, err := Merge(logs)
	if err != nil {
		return nil, err
	}
	rep.Trace = merged.Trace
	rep.Gaps = merged.Gaps
	rep.Beyond = merged.Beyond

	// Completeness: every log must end cleanly, with no gaps, stranded
	// events, restarts or aborts; the logs must also agree on one outcome.
	rep.Complete = merged.Gaps == 0 && merged.Beyond == 0 && rep.Restarts == 0
	var incompleteWhy []string
	if merged.Gaps > 0 {
		incompleteWhy = append(incompleteWhy, fmt.Sprintf("%d sequence gaps", merged.Gaps))
	}
	if rep.Restarts > 0 {
		incompleteWhy = append(incompleteWhy, fmt.Sprintf("%d restarts", rep.Restarts))
	}
	outcome := ""
	outcomeAgreed := true
	for place, log := range logs {
		if !log.Ended {
			rep.Complete = false
			incompleteWhy = append(incompleteWhy, fmt.Sprintf("entity %d log has no end record", place))
			continue
		}
		if log.Outcome == wire.OutcomeAborted {
			rep.Complete = false
			incompleteWhy = append(incompleteWhy, fmt.Sprintf("entity %d session aborted", place))
			continue
		}
		if outcome == "" {
			outcome = log.Outcome
		} else if outcome != log.Outcome {
			outcomeAgreed = false
		}
	}
	if outcomeAgreed {
		rep.Outcome = outcome
	}

	// The trace-inclusion core: the merged (prefix) trace must be a weak
	// trace of the service, explored exactly to the needed depth.
	st, err := lts.CheckServiceTrace(service, rep.Trace, maxStates)
	if err != nil {
		return nil, fmt.Errorf("conformance: exploring service: %w", err)
	}
	trace := lts.JoinTrace(rep.Trace)
	rep.TraceAccepted = st.Accepted
	deltaOK := st.CanTerminate
	// A rejection decides nothing when the state cap cut the service graph.
	ended := rep.Outcome == wire.OutcomeCompleted || rep.Outcome == wire.OutcomeDeadlocked
	rejected := !rep.TraceAccepted || rep.Complete && ended && !deltaOK

	switch {
	case rejected && st.Capped:
		rep.Verdict = VerdictInconclusive
		rep.Reason = fmt.Sprintf("the service exploration hit its state cap before deciding %q", trace)
	case !rep.TraceAccepted:
		rep.Verdict = VerdictViolation
		rep.Reason = fmt.Sprintf("recorded trace %q is not a service trace", trace)
	case !rep.Complete:
		rep.Verdict = VerdictIncomplete
		rep.Reason = "recorded prefix is a service trace, but observations are missing: " +
			strings.Join(incompleteWhy, "; ")
	case rep.Outcome == wire.OutcomeCompleted && !deltaOK:
		rep.Verdict = VerdictViolation
		rep.Reason = fmt.Sprintf("session terminated but the service cannot terminate after %q", trace)
	case rep.Outcome == wire.OutcomeDeadlocked && !deltaOK:
		rep.Verdict = VerdictDeadlock
		rep.Reason = fmt.Sprintf("session quiescent after %q where the service cannot terminate", trace)
	default:
		rep.Verdict = VerdictAccepted
		rep.Reason = "recorded trace is a service trace"
	}
	return rep, nil
}

// CheckFiles parses entity log files (one per entity) and checks them.
func CheckFiles(service *lotos.Spec, paths []string, maxStates int) (*Report, error) {
	logs := make(map[int]*wire.EntityLog, len(paths))
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("conformance: %w", err)
		}
		log, err := wire.ParseTraceLog(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("conformance: %s: %w", path, err)
		}
		if _, dup := logs[log.Place]; dup {
			return nil, fmt.Errorf("conformance: two logs claim place %d", log.Place)
		}
		logs[log.Place] = log
	}
	return Check(service, logs, maxStates)
}
