package main

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/fsm"
	"repro/internal/lotos"
	"repro/internal/sim"
)

// The sim-check workload is the runtime path: deterministic lockstep
// sessions of the derived entities on the compiled-FSM engine (with AST
// fallback for entities past the compile cap), each followed by a check of
// its trace against the service. The run dominates long sessions (loop3);
// the check dominates the branching services (par2, choice).

// corpusSessionEvents bounds corpus sessions; the corpus services that
// terminate do so within it.
const corpusSessionEvents = 10

type simInput struct {
	svc   simService
	deriv *core.Derivation
	fleet *fsm.Fleet
}

// simServices lists the theorem-covered corpus services and the generated
// ones (quick runs keep the corpus only).
func simServices(quick bool) []simService {
	var out []simService
	for _, n := range corpusNames() {
		if theoremCovered(n) {
			out = append(out, simService{n, corpusSource(n), corpusSessionEvents})
		}
	}
	if !quick {
		out = append(out, generatedSimServices...)
	}
	return out
}

func runSimCheck(cfg config, exp *expectations) (*outcome, error) {
	o := newOutcome()
	tr := cfg.newTracer()
	svcs := simServices(cfg.quick)
	inputs, err := setup(cfg, o, tr, func(sp *spanRef) ([]simInput, error) {
		out := make([]simInput, len(svcs))
		for i, s := range svcs {
			d, err := derive(sp, tr, s.src)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", s.name, err)
			}
			c := sp.child("fsm.CompileEntities")
			fleet := fsm.CompileEntities(d.Entities, fsm.Config{})
			c.end()
			tr.count("fsm.compiled", float64(len(fleet.Machines)))
			tr.count("fsm.fallbacks", float64(len(fleet.Errors)))
			out[i] = simInput{s, d, fleet}
		}
		return out, nil
	}, nil)
	if err != nil {
		return nil, err
	}

	// One session per service and pass; session seeds come from the run
	// seed, drawn afresh for every pass.
	rng := newRand(cfg.seed, streamSessions)
	var ops []op
	for _, in := range inputs {
		allowed := exp.SimOutcomes[in.svc.name]
		if len(allowed) == 0 {
			return nil, fmt.Errorf("expected.json has no sim outcomes for %s", in.svc.name)
		}
		ops = append(ops, op{name: in.svc.name, run: func(sp *spanRef) error {
			return session(sp, tr, in, rng.Int64(), allowed)
		}})
	}
	measure(cfg, o, ops, tr)
	return o, nil
}

// session runs one lockstep session and checks its trace.
func session(sp *spanRef, tr *tracer, in simInput, seed int64, allowed []string) error {
	entities := cloneEntities(in.deriv.Entities)
	service := lotos.CloneSpec(in.deriv.Service.Spec)
	c := sp.child("sim.Run")
	res, err := sim.Run(entities, sim.Config{
		Seed:      seed,
		MaxEvents: in.svc.maxEvents,
		Lockstep:  true,
		Engine:    sim.EngineFSM,
		Fleet:     in.fleet,
	})
	c.end()
	if err != nil {
		return err
	}
	tr.count("sim.events", float64(len(res.Trace)))
	c = sp.child("sim.CheckTrace")
	err = sim.CheckTrace(service, res, 0)
	c.end()
	if err != nil {
		return fmt.Errorf("seed %d: %w", seed, err)
	}
	if got := outcomeClass(res); !slices.Contains(allowed, got) {
		return fmt.Errorf("seed %d: session %s, want one of %v", seed, got, allowed)
	}
	return nil
}

func outcomeClass(res *sim.Result) string {
	switch {
	case res.Completed:
		return "completed"
	case res.Deadlocked:
		return "deadlocked"
	case res.TimedOut:
		return "timedout"
	case res.Stopped:
		return "stopped"
	}
	return "unknown"
}
