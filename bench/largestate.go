package main

import (
	"fmt"

	protoderive "repro"
	"repro/internal/compose"
	"repro/internal/core"
	"repro/internal/lts"
)

// The large-state workload spends almost all its time in product
// exploration and equivalence, through each visited-index path of the
// explorers: the parallel explorer with symmetry keys (multiinstance), the
// plain parallel explorer followed by a full weak-bisimulation check (the
// 4-instance relay, explored to closure), and the spilling index held to
// 1 MiB (the 7-instance relay, counted without retaining the graph). A
// pass takes about 4.5 s with the host reference, so a 20 s run holds three
// or four, and each operation's median rests on that many runs of it.

// spillBudget is the relay census's in-memory index budget.
const spillBudget = 1 << 20

// largeOp is one large-state operation.
type largeOp struct {
	name string
	src  string
	// opts are the verification options; nil selects the stats-only
	// spilling census.
	opts *protoderive.VerifyOptions
}

func largeOps(quick bool) []largeOp {
	if quick {
		return []largeOp{{name: "relay5-spill", src: relaySrc(5)}}
	}
	return []largeOp{
		{name: "multiinstance-symmetry", src: corpusSource("multiinstance"), opts: &protoderive.VerifyOptions{
			ChannelCap: 1, ObsDepth: 2, MaxStates: 1000000, Parallel: true, Workers: 2, Reductions: "por+symmetry",
		}},
		// Obs depth 12 exceeds the relay's longest trace, so both state
		// spaces close and the weak-bisimulation check runs.
		{name: "relay4-parallel", src: relaySrc(4), opts: &protoderive.VerifyOptions{
			ChannelCap: 1, ObsDepth: 12, MaxStates: 1000000, Parallel: true, Workers: 2,
		}},
		{name: "relay7-spill", src: relaySrc(7)},
	}
}

type largeInput struct {
	proto *protoderive.Protocol
	deriv *core.Derivation
}

func runLargeState(cfg config, exp *expectations) (*outcome, error) {
	o := newOutcome()
	tr := cfg.newTracer()
	defs := largeOps(cfg.quick)
	inputs, err := setup(cfg, o, tr, func(sp *spanRef) ([]largeInput, error) {
		out := make([]largeInput, len(defs))
		for i, def := range defs {
			var err error
			if def.opts != nil {
				c := sp.child("protoderive.ParseService+Derive")
				var svc *protoderive.Service
				if svc, err = protoderive.ParseService(def.src); err == nil {
					out[i].proto, err = svc.Derive()
				}
				c.end()
				if err != nil {
					return nil, fmt.Errorf("%s: %w", def.name, err)
				}
			}
			// The census and every traced operation call the layers directly.
			if def.opts == nil || tr != nil {
				if out[i].deriv, err = derive(sp, tr, def.src); err != nil {
					return nil, fmt.Errorf("%s: %w", def.name, err)
				}
			}
		}
		return out, nil
	}, nil)
	if err != nil {
		return nil, err
	}

	var ops []op
	for i, def := range defs {
		want, ok := exp.LargeState[def.name]
		if !ok {
			return nil, fmt.Errorf("expected.json has no large-state entry %s", def.name)
		}
		in := inputs[i]
		ops = append(ops, op{name: def.name, run: func(sp *spanRef) error {
			if def.opts == nil {
				return spillCensus(sp, tr, in.deriv, cfg.scratch, want)
			}
			if sp == nil {
				rep, err := in.proto.Verify(def.opts)
				if err != nil {
					return err
				}
				return checkLarge(rep.Ok, rep.Complete, rep.WeakBisimilar, int64(rep.ComposedStates), want)
			}
			red, err := compose.ParseReductions(def.opts.Reductions)
			if err != nil {
				return err
			}
			v, err := splitVerify(sp, tr, in.deriv, compose.VerifyOptions{
				ChannelCap: def.opts.ChannelCap,
				ObsDepth:   def.opts.ObsDepth,
				MaxStates:  def.opts.MaxStates,
				Parallel:   def.opts.Parallel,
				Workers:    def.opts.Workers,
				Reductions: red,
			})
			if err != nil {
				return err
			}
			return checkLarge(v.ok, v.complete, v.bisimilar, int64(v.states), want)
		}})
	}
	measure(cfg, o, ops, tr)
	return o, nil
}

func checkLarge(ok, complete, bisimilar bool, states int64, want largeWant) error {
	if ok != want.OK || complete != want.Complete || bisimilar != want.Bisimilar || states != want.States {
		return fmt.Errorf("got ok=%v complete=%v bisimilar=%v states=%d, want ok=%v complete=%v bisimilar=%v states=%d",
			ok, complete, bisimilar, states, want.OK, want.Complete, want.Bisimilar, want.States)
	}
	return nil
}

// spillCensus counts the relay's symmetry-reduced product with the
// spilling visited index held to spillBudget, retaining no graph.
func spillCensus(sp *spanRef, tr *tracer, d *core.Derivation, scratch string, want largeWant) error {
	c := sp.child("compose.New")
	sys, err := compose.New(cloneEntities(d.Entities), compose.Config{
		ChannelCap:  1,
		Limits:      lts.Limits{MaxStates: 2000000},
		Reductions:  compose.RedAll.With(0), // POR, symmetry and spill, as an explicit mask
		SpillBudget: spillBudget,
		SpillDir:    scratch,
	})
	c.end()
	if err != nil {
		return err
	}
	c = sp.child("compose.ExploreStatsOnly")
	st, err := sys.ExploreStatsOnly()
	c.end()
	if err != nil {
		return err
	}
	countExplore(tr, sys, st.States, st.Truncated)
	tr.gauge("compose.peak_index_bytes", float64(st.PeakMemBytes))
	if st.States != want.States || st.Transitions != want.Transitions || st.Truncated {
		return fmt.Errorf("census %d states / %d transitions (truncated=%v), want %d / %d",
			st.States, st.Transitions, st.Truncated, want.States, want.Transitions)
	}
	if st.PeakMemBytes > want.MaxPeakIndexBytes {
		return fmt.Errorf("index peaked at %d bytes, bound %d", st.PeakMemBytes, want.MaxPeakIndexBytes)
	}
	return nil
}
