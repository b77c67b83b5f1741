package main

import (
	"fmt"

	"repro/internal/compose"
	"repro/internal/core"
	"repro/internal/equiv"
	"repro/internal/lotos"
	"repro/internal/lts"
)

// splitVerdict is the outcome of a verification run phase by phase.
type splitVerdict struct {
	ok, complete, bisimilar bool
	states                  int
}

// splitVerify performs compose.Verify's phases as separate calls into each
// layer, one span per call: the service exploration (lts), the product
// construction and exploration (compose), and the equivalence checks
// (equiv) — and combines their results the way compose.Verify's verdict
// does. It extracts no counterexample.
func splitVerify(sp *spanRef, tr *tracer, d *core.Derivation, opts compose.VerifyOptions) (splitVerdict, error) {
	var v splitVerdict
	lim := lts.Limits{MaxStates: opts.MaxStates, MaxObsDepth: opts.ObsDepth}
	c := sp.child("lts.ExploreSpec")
	sg, err := lts.ExploreSpec(lotos.CloneSpec(d.Service.Spec), lim)
	c.end()
	if err != nil {
		return v, fmt.Errorf("exploring service: %w", err)
	}
	tr.count("lts.service_states", float64(sg.NumStates()))

	c = sp.child("compose.New")
	sys, err := compose.New(cloneEntities(d.Entities), compose.Config{
		ChannelCap:  opts.ChannelCap,
		Limits:      lim,
		Parallel:    opts.Parallel,
		Workers:     opts.Workers,
		Faults:      opts.Faults,
		Reductions:  opts.Reductions,
		SpillBudget: opts.SpillBudget,
		SpillDir:    opts.SpillDir,
	})
	c.end()
	if err != nil {
		return v, err
	}
	c = sp.child("compose.Explore")
	cg, err := sys.Explore()
	c.end()
	if err != nil {
		return v, fmt.Errorf("exploring product: %w", err)
	}
	countExplore(tr, sys, int64(cg.NumStates()), cg.Truncated && cg.NumStates() >= effectiveMax(opts.MaxStates))

	c = sp.child("equiv.WeakTraceEquivalent")
	eq := equiv.WeakTraceEquivalent(sg, cg, opts.ObsDepth)
	c.end()
	if !eq {
		c = sp.child("equiv.TraceDiff")
		equiv.TraceDiff(sg, cg, opts.ObsDepth, compose.DefaultTraceDiffLimit)
		c.end()
	}
	c = sp.child("lts.Graph.Deadlocks")
	deadlocks := len(cg.Deadlocks())
	c.end()
	v.states = cg.NumStates()
	v.complete = !sg.Truncated && !cg.Truncated
	if v.complete {
		c = sp.child("equiv.WeakBisimilarStats")
		b, st := equiv.WeakBisimilarStats(sg, cg)
		c.end()
		v.bisimilar = b
		tr.count("equiv.saturate_ms", float64(st.SaturateNanos)/1e6)
		tr.count("equiv.refine_ms", float64(st.RefineNanos)/1e6)
		tr.count("equiv.rounds", float64(st.RefinementRounds))
	}
	v.ok = eq && deadlocks == 0 && (!v.complete || v.bisimilar)
	return v, nil
}

// countExplore records one product exploration's reduction counters.
func countExplore(tr *tracer, sys *compose.System, states int64, truncated bool) {
	ri := sys.ReductionInfo()
	tr.count("compose.states", float64(states))
	tr.count("compose.ample_hits", float64(ri.AmpleHits))
	tr.count("compose.orbits_collapsed", float64(ri.OrbitsCollapsed))
	tr.count("compose.spilled_bytes", float64(ri.SpilledBytes))
	if truncated {
		tr.count("compose.truncated", 1)
	}
}

// effectiveMax resolves a MaxStates option to the cap explorers apply.
func effectiveMax(maxStates int) int {
	if maxStates <= 0 {
		return lts.DefaultMaxStates
	}
	return maxStates
}
