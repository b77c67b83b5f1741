package main

import (
	"fmt"
	"io"

	"repro/internal/cli"
	"repro/internal/equiv"
	"repro/internal/lotos"
	"repro/internal/lts"
)

// runExplore is `pg explore`: it explores the behaviour of any
// specification written in the paper's language — reachable states,
// transitions, weak traces and deadlocks, derived with the Basic-LOTOS
// operational semantics. It exits 1 when the specification can deadlock.
//
// Flags:
//
//	-traces N     enumerate weak traces up to N observable events
//	-depth N      bound exploration to N observable events (default 16)
//	-maxstates N  cap explored states (default 20000)
//	-transitions  print every explored transition
//	-minimize     also report the weak-bisimulation quotient's size (with
//	              -depth 0, the full closure: the sizes an entity's
//	              minimized layer reports)
//	-dot          emit the graph (or with -minimize its quotient) in
//	              Graphviz dot format
func runExplore(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := newFlagSet("explore", "[flags] spec.lotos", stderr)
	traces := fs.Int("traces", 0, "enumerate weak traces up to this length")
	depth := fs.Int("depth", 16, "observable exploration depth")
	maxStates := fs.Int("maxstates", 0, "state cap (0 = default)")
	showTrans := fs.Bool("transitions", false, "print all transitions")
	minimize := fs.Bool("minimize", false, "also report the weak-bisimulation quotient")
	dot := fs.Bool("dot", false, "emit the graph in Graphviz dot format and exit")
	sp := parseInput(fs, args, stdin, stderr)
	if sp == nil {
		return cli.ExitUsage
	}
	lotos.Number(sp)

	g, err := lts.ExploreSpec(sp, lts.Limits{MaxObsDepth: *depth, MaxStates: *maxStates})
	if err != nil {
		fmt.Fprintln(stderr, "pg explore:", err)
		return cli.ExitFail
	}
	if *dot {
		target := g
		if *minimize {
			target = equiv.QuotientWeak(g)
		}
		fmt.Fprint(stdout, target.DOT(fs.Arg(0)))
		return cli.ExitOK
	}
	fmt.Fprintf(stdout, "states:      %d\n", g.NumStates())
	fmt.Fprintf(stdout, "transitions: %d\n", g.NumTransitions())
	fmt.Fprintf(stdout, "truncated:   %v\n", g.Truncated)
	fmt.Fprintf(stdout, "labels:      %v\n", g.Labels())
	dl := g.Deadlocks()
	fmt.Fprintf(stdout, "deadlocks:   %d\n", len(dl))
	for _, s := range dl {
		if g.States[s] != nil {
			fmt.Fprintf(stdout, "  deadlocked state: %s\n", lotos.Format(g.States[s]))
		} else {
			fmt.Fprintf(stdout, "  deadlocked state: %s\n", g.Keys[s])
		}
	}
	if *showTrans {
		for s, es := range g.Edges {
			for _, e := range es {
				fmt.Fprintf(stdout, "  %4d --%s--> %d\n", s, g.Alphabet[e.Label], e.To)
			}
		}
	}
	if *minimize {
		q := equiv.QuotientWeak(g)
		fmt.Fprintf(stdout, "weak-bisimulation quotient: %d states / %d transitions\n",
			q.NumStates(), q.NumTransitions())
	}
	if *traces > 0 {
		fmt.Fprintf(stdout, "weak traces (<= %d events):\n", *traces)
		for _, tr := range lts.WeakTraces(g, *traces) {
			if tr == "" {
				fmt.Fprintln(stdout, "  <empty>")
				continue
			}
			fmt.Fprintf(stdout, "  %s\n", tr)
		}
	}
	if len(dl) > 0 {
		return cli.ExitFail
	}
	return cli.ExitOK
}
