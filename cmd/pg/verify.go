package main

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/cli"
	"repro/internal/compose"
	"repro/internal/core"
	"repro/internal/lotos"
	"repro/internal/sim"
)

// runVerify is `pg verify`: it checks the paper's Section-5 correctness
// relation
//
//	S ≈ hide G in ((T_1 ||| ... ||| T_n) |[G]| Medium)
//
// by exact weak bisimulation when the composed state space is finite, and
// by weak-trace equality up to a bounded observable depth plus deadlock
// analysis otherwise. The entities T_p are derived from the service, or,
// given as place=entity.spec arguments, are hand-written ones: the analysis
// direction the paper's introduction contrasts with synthesis ("to
// determine whether a given protocol satisfies a given service
// specification"). A given entity uses send/receive interactions in the
// same language. Optionally it also executes the entities concurrently and
// checks every observed trace, and can run the verified message optimizer.
//
// Flags:
//
//	-depth N      observable comparison depth (default 8)
//	-cap N        medium channel capacity (default 1)
//	-maxstates N  exploration state cap
//	-subset       accept safety-only conformance (composed traces ⊆
//	              service, no deadlock)
//	-handshake    derive with the Section-3.3 request/acknowledge interrupt
//	              implementation (not with given entities)
//	-parallel     explore the composed state space with one worker per CPU
//	-compositional  minimize each entity LTS (weak-bisimulation quotient)
//	              before composing; same verdicts, smaller product
//	              (non-conformant or capped attempts re-verify monolithically)
//	-reductions S reduction set for the product exploration: "default" (POR
//	              only), "none", "all", or "+"-joined por/symmetry/spill;
//	              every set is verdict-preserving (symmetry-reduced failures
//	              re-verify unreduced for a concrete counterexample)
//	-spill-budget N  in-memory visited-index byte budget for "spill"
//	-faults LIST  additionally verify under medium fault models (e.g.
//	              "loss,dup,reorder" or "loss+dup"); prints a fault matrix
//	              and the shortest replayable counterexample per failed cell
//	-diff N       example traces collected per side on a trace mismatch (default 5)
//	-sim N        additionally run N seeded lockstep simulations (run k uses
//	              seed S+k, so a run is reproducible from its seed)
//	-seed S       simulation base seed
//	-events N     simulation event bound (default 40)
//	-optimize     remove non-essential messages (re-verifying each removal)
//	-stats        print equivalence-engine counters (SCCs, saturation, rounds)
//	              and, with -compositional, the per-phase pipeline timings
//	              (entity quotient ns, product-over-quotients ns, reuse ratio)
//
// The exit code reflects the reliable-medium verdict (or, with -subset, the
// safety verdict): fault-model rows are diagnostic (derived protocols assume
// the paper's reliable medium).
func runVerify(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := newFlagSet("verify", "[flags] service.spec [place=entity.spec ...]", stderr)
	depth := fs.Int("depth", 0, "observable comparison depth (0 = default 8)")
	chanCap := fs.Int("cap", 0, "channel capacity (0 = default 1)")
	maxStates := fs.Int("maxstates", 0, "state cap (0 = default)")
	subset := fs.Bool("subset", false, "accept safety-only conformance")
	simRuns := fs.Int("sim", 0, "also run N seeded lockstep simulations (run k uses seed+k)")
	seed := fs.Int64("seed", 1, "simulation base seed")
	maxEvents := fs.Int("events", 40, "simulation event bound")
	faults := fs.String("faults", "", "comma-separated fault models to also verify under (loss, dup, reorder, +combos)")
	diffLimit := fs.Int("diff", 0, "example traces per side on trace mismatch (0 = default 5)")
	optimize := fs.Bool("optimize", false, "remove non-essential messages")
	handshake := fs.Bool("handshake", false, "derive with the Section-3.3 request/acknowledge interrupt implementation")
	parallel := fs.Bool("parallel", false, "explore the composed state space with one worker per CPU")
	compositional := fs.Bool("compositional", false, "minimize each entity LTS before composing (quotient-before-compose)")
	reductions := fs.String("reductions", "", "reduction set for the product exploration: default, none, all, or +-joined por/symmetry/spill")
	spillBudget := fs.Int64("spill-budget", 0, "in-memory visited-index budget in bytes for the spill reduction (0 = default)")
	stats := fs.Bool("stats", false, "print equivalence-engine work counters")
	sp := parseInput(fs, args, stdin, stderr)
	if sp == nil {
		return cli.ExitUsage
	}
	models, err := compose.ParseFaultModels(*faults)
	if err != nil {
		fmt.Fprintln(stderr, "pg verify:", err)
		return cli.ExitUsage
	}
	red, err := compose.ParseReductions(*reductions)
	if err != nil {
		fmt.Fprintln(stderr, "pg verify:", err)
		return cli.ExitUsage
	}
	given, err := readEntities(fs.Args()[1:], stdin)
	if err != nil {
		fmt.Fprintln(stderr, "pg verify:", err)
		return cli.ExitUsage
	}

	service, entities := sp, given
	if len(given) == 0 {
		mode := core.InterruptBroadcast
		if *handshake {
			mode = core.InterruptHandshake
		}
		d, err := core.Derive(sp, core.Options{Interrupt: mode})
		if err != nil {
			fmt.Fprintln(stderr, "pg verify:", err)
			return cli.ExitFail
		}
		service, entities = d.Service.Spec, d.Entities
	} else if *handshake {
		fmt.Fprintln(stderr, "pg verify: -handshake selects a derivation; it does not apply to given entities")
		return cli.ExitUsage
	}

	opts := compose.VerifyOptions{
		ChannelCap:     *chanCap,
		ObsDepth:       *depth,
		MaxStates:      *maxStates,
		Parallel:       *parallel,
		TraceDiffLimit: *diffLimit,
		Compositional:  *compositional,
		Reductions:     red,
		SpillBudget:    *spillBudget,
	}
	rep, err := compose.Verify(service, entities, opts)
	if err != nil {
		fmt.Fprintln(stderr, "pg verify:", err)
		return cli.ExitFail
	}
	fmt.Fprint(stdout, rep.Summary())
	if *stats {
		printStats(stdout, rep)
	}
	if len(given) == 0 && hasDisable(sp) && !rep.Ok() {
		fmt.Fprintln(stdout, "note: the service uses '[>'; the Section-5 theorem excludes it and")
		fmt.Fprintln(stdout, "the Section-3.3 implementation deviates by design (see EXPERIMENTS.md, E11)")
	}

	// The exit code reflects the reliable-medium verdict only (with -subset
	// its safety half): the derived protocols assume the paper's reliable
	// medium, so fault rows are diagnostic, not pass/fail.
	ok := rep.Ok()
	if *subset {
		ok = rep.ComposedSubset && rep.ComposedDeadlocks == 0
		fmt.Fprintf(stdout, "safety conformance (composed ⊆ service): %v\n", rep.ComposedSubset)
		if ok {
			fmt.Fprintln(stdout, "subset verdict: OK")
		} else {
			fmt.Fprintln(stdout, "subset verdict: FAIL")
		}
	}
	exitCode := cli.ExitOK
	if !ok {
		exitCode = cli.ExitFail
	}

	if len(models) > 0 {
		if err := printFaultMatrix(stdout, service, entities, models, opts, rep); err != nil {
			fmt.Fprintln(stderr, "pg verify:", err)
			return cli.ExitFail
		}
	}

	if *optimize {
		res, err := compose.OptimizeMessages(service, entities, opts)
		if err != nil {
			fmt.Fprintln(stderr, "pg verify: optimize:", err)
			return cli.ExitFail
		}
		fmt.Fprintf(stdout, "optimizer: %d -> %d messages (removed ids %v, %d candidates tried)\n",
			res.Before, res.After, res.Removed, res.Tried)
		entities = res.Entities
	}

	if *simRuns > 0 {
		st, err := sim.RunMany(service, entities, sim.Config{
			Seed:      *seed,
			MaxEvents: *maxEvents,
		}, *simRuns, 0)
		if err != nil {
			fmt.Fprintf(stdout, "simulation: TRACE VIOLATION: %v\n", err)
			exitCode = cli.ExitFail
		} else {
			fmt.Fprintf(stdout, "simulation: %d runs, %d completed, %d deadlocked, %d stopped at event bound, %d service events, %d messages; all traces valid\n",
				st.Runs, st.Completed, st.Deadlocked, st.Stopped, st.Events, st.Sent)
		}
	}
	return exitCode
}

// printFaultMatrix verifies the protocol under each requested fault model
// and renders the matrix: one row per model with its verdict, plus the
// shortest replayable counterexample for every failed cell. The reliable
// verdict (already computed) heads the matrix for comparison.
func printFaultMatrix(w io.Writer, service *lotos.Spec, entities map[int]*lotos.Spec, models []compose.FaultModel, opts compose.VerifyOptions, reliable *compose.Report) error {
	cells, err := compose.VerifyMatrix(service, entities, models, opts)
	if err != nil {
		return err
	}
	all := append([]compose.MatrixCell{{Faults: compose.Reliable, Report: reliable}}, cells...)
	fmt.Fprintf(w, "fault matrix (cap=%d):\n", max(opts.ChannelCap, 1))
	for _, c := range all {
		verdict := "OK"
		switch {
		case !c.Report.Ok() && c.Report.ComposedDeadlocks > 0:
			verdict = "FAIL (deadlock)"
		case !c.Report.Ok():
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "  %-12s %s\n", c.Faults, verdict)
	}
	for _, c := range cells {
		if c.Report.Witness != nil {
			fmt.Fprint(w, c.Report.Witness.Summary())
			res, err := sim.ReplayWitness(entities, c.Report.Witness)
			if err != nil {
				return fmt.Errorf("replaying %s counterexample: %w", c.Faults, err)
			}
			fmt.Fprintf(w, "  replay: %d steps, trace %q, terminated=%v deadlocked=%v\n",
				res.Steps, strings.Join(res.Trace, " "), res.Terminated, res.Deadlocked)
		}
	}
	return nil
}

// printStats renders the equivalence engine's work counters and, for a
// compositional run, the quotient-before-compose pipeline timings (-stats).
func printStats(w io.Writer, rep *compose.Report) {
	if c := rep.Compositional; c != nil {
		for _, e := range c.Entities {
			reused := ""
			if e.Reused {
				reused = " (reused)"
			}
			fmt.Fprintf(w, "compositional: entity %d: %d -> %d states, %d -> %d transitions, quotient %.3fms%s\n",
				e.Place, e.ExactStates, e.QuotientStates, e.ExactTransitions, e.QuotientTransitions,
				float64(e.BuildNanos)/1e6, reused)
		}
		fmt.Fprintf(w, "compositional: product over quotients: %d states, %d transitions in %.3fms\n",
			c.ProductStates, c.ProductTransitions, float64(c.ProductNanos)/1e6)
		fmt.Fprintf(w, "compositional: entity build %.3fms total, artifact reuse %d/%d (%.0f%%)\n",
			float64(c.BuildNanos)/1e6, c.Reused, len(c.Entities), 100*c.ReuseRatio())
		if c.Fallback != "" {
			fmt.Fprintf(w, "compositional: fell back to monolithic verification: %s\n", c.Fallback)
		}
	}
	if ri := rep.Reduction; ri != nil {
		fmt.Fprintf(w, "reductions: %s", ri.Enabled)
		if ri.SymmetryColumns > 0 {
			fmt.Fprintf(w, ", %d symmetric columns, %d orbits collapsed", ri.SymmetryColumns, ri.OrbitsCollapsed)
		}
		if ri.AmpleHits > 0 {
			fmt.Fprintf(w, ", %d ample hits", ri.AmpleHits)
		}
		if ri.SpillRuns > 0 {
			fmt.Fprintf(w, ", %d runs spilled (%d bytes, peak mem %d)", ri.SpillRuns, ri.SpilledBytes, ri.PeakMemBytes)
		}
		fmt.Fprintln(w)
		if ri.Fallback != "" {
			fmt.Fprintf(w, "reductions: %s\n", ri.Fallback)
		}
	}
	if rep.Equiv == nil {
		fmt.Fprintln(w, "engine: no stats (weak bisimulation skipped)")
		return
	}
	e := rep.Equiv
	fmt.Fprintf(w, "engine: %d states, %d transitions, %d labels\n", e.States, e.Transitions, e.Labels)
	fmt.Fprintf(w, "engine: %d tau-SCCs, %d saturation edges, %d refinement rounds, %d blocks\n",
		e.TauSCCs, e.SaturationEdges, e.RefinementRounds, e.Blocks)
	fmt.Fprintf(w, "engine: saturate %.3fms, refine %.3fms\n",
		float64(e.SaturateNanos)/1e6, float64(e.RefineNanos)/1e6)
}

func hasDisable(sp *lotos.Spec) bool {
	found := false
	lotos.WalkSpec(sp, func(e lotos.Expr) {
		if _, ok := e.(*lotos.Disable); ok {
			found = true
		}
	})
	return found
}
