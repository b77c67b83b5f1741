package sim

import (
	"errors"
	"fmt"

	"repro/internal/lotos"
	"repro/internal/lts"
)

// ErrInconclusive marks a trace check that could not decide: the trace
// was not found in the service, but the state cap left a state the walk
// needed underived, so the missing path may lie past the cap. A larger
// maxStates decides it.
var ErrInconclusive = errors.New("inconclusive: the service exploration hit its state cap")

// CheckTrace verifies that a simulation result's observable trace is a weak
// trace of the service specification: the global ordering of service
// primitives produced by the distributed entities must be one the service
// allows. For completed runs the trace must moreover be extendable by
// successful termination.
//
// The service's states are derived lazily, only those the trace's
// determinized walk reaches (see lts.CheckServiceTrace), so the check is
// sound for recursive, infinite-state services as well. When the state cap
// left a state the walk needed underived, a rejection is undecided and the
// error wraps ErrInconclusive; a decided rejection names the first refused
// event and the events the service allowed there.
func CheckTrace(service *lotos.Spec, res *Result, maxStates int) error {
	labels := res.TraceStrings()
	st, err := lts.CheckServiceTrace(service, labels, maxStates)
	if err != nil {
		return fmt.Errorf("sim: exploring service: %w", err)
	}
	trace := lts.JoinTrace(labels)
	switch {
	case !st.Accepted && st.Capped:
		return fmt.Errorf("sim: observed trace %q: %w", trace, ErrInconclusive)
	case !st.Accepted:
		return fmt.Errorf("sim: observed trace %q is not a service trace: %s", trace, st.Rejection(labels))
	case res.Completed && !st.CanTerminate && st.Capped:
		return fmt.Errorf("sim: run terminated after %q: %w", trace, ErrInconclusive)
	case res.Completed && !st.CanTerminate:
		return fmt.Errorf("sim: run terminated but service cannot terminate after %q", trace)
	}
	return nil
}

// RunStats aggregates repeated randomized runs.
type RunStats struct {
	Runs       int
	Completed  int
	Deadlocked int
	TimedOut   int
	Stopped    int
	Events     int
	Sent       int
}

// RunMany performs n independent randomized runs with seeds seed0..seed0+n-1,
// checking every trace against the service. It fails fast on the first
// trace violation. Each run is reproducible from its seed only under
// cfg.Lockstep; otherwise the per-entity goroutines' scheduling varies
// between identical calls.
func RunMany(service *lotos.Spec, entities map[int]*lotos.Spec, cfg Config, n int, maxStates int) (RunStats, error) {
	var st RunStats
	base := cfg.Seed
	for i := 0; i < n; i++ {
		cfg.Seed = base + int64(i)
		// Medium and harness sub-seeds derive from the run seed (SubSeed),
		// so consecutive runs get disjoint streams without arithmetic here.
		cfg.Harness = nil // fresh seeded harness per run
		res, err := Run(entities, cfg)
		if err != nil {
			return st, err
		}
		if err := CheckTrace(service, res, maxStates); err != nil {
			return st, fmt.Errorf("seed %d: %w", cfg.Seed, err)
		}
		st.Runs++
		st.Events += len(res.Trace)
		st.Sent += res.Medium.Sent
		switch {
		case res.Completed:
			st.Completed++
		case res.Deadlocked:
			st.Deadlocked++
		case res.TimedOut:
			st.TimedOut++
		case res.Stopped:
			st.Stopped++
		}
	}
	return st, nil
}
