package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/compose"
	"repro/internal/core"
	"repro/internal/lotos"
	"repro/internal/lts"
	"repro/internal/medium"
	"repro/internal/mutate"
	"repro/internal/sim"
)

const example3 = `
SPEC S [> interrupt3; exit WHERE
  PROC S = (read1; push2; S >> pop2; write3; exit)
        [] (eof1; make3; exit)
  END
ENDSPEC`

const example2 = `SPEC A WHERE PROC A = (a1; A >> b2; exit) [] (a1; b2; exit) END ENDSPEC`

const dataPhase = `
SPEC D [> d2; c1; exit WHERE
  PROC D = a1; b2; D END
ENDSPEC`

// runExperiments is `pg experiments`: it regenerates the full
// paper-versus-measured record of EXPERIMENTS.md in one run — the
// attributed tree of Figure 4 (E1), the derived entities of the paper's
// examples (E2-E5), the non-regular behaviour of Example 2 (E6), the
// message-complexity accounting (E8), the Section-5 correctness verdicts
// (E9), the centralized-baseline comparison (E10), the disabling deviations
// and the Rel/interrupt race (E11), the message optimizer (E13), the
// handshake interrupt mode (E14), the mutation kill rate (E16) and the ARQ
// loss sweep (E15).
//
// Flags:
//
//	-quick  smaller sweeps
func runExperiments(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := newFlagSet("experiments", "[-quick]", stderr)
	quick := fs.Bool("quick", false, "smaller sweeps")
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}
	experiments(stdout, *quick)
	return cli.ExitOK
}

func experiments(w io.Writer, quick bool) {
	start := time.Now()
	section := func(id, title string) {
		fmt.Fprintf(w, "\n==== %s — %s ====\n", id, title)
	}
	derive := func(src string, opts core.Options) *core.Derivation {
		d, err := core.Derive(lotos.MustParse(src), opts)
		if err != nil {
			fmt.Fprintf(w, "ERROR: %v\n", err)
			os.Exit(cli.ExitFail)
		}
		return d
	}

	// E1: Figure 4.
	section("E1", "attributed syntax tree of Example 3 (Figure 4)")
	d3 := derive(example3, core.Options{})
	fmt.Fprint(w, d3.Service.Tree())

	// E2: derived entities.
	section("E2", "derived protocol entities of Example 3 (Section 4.2)")
	fmt.Fprint(w, d3.Render())

	// E6: Example 2 traces.
	section("E6", "Example 2: the non-regular service (a1)^n (b2)^n")
	sp2 := lotos.MustParse(example2)
	lotos.Number(sp2)
	g2, err := lts.ExploreSpec(sp2, lts.Limits{MaxObsDepth: 6})
	if err == nil {
		for _, tr := range lts.WeakTraces(g2, 6) {
			if tr != "" {
				fmt.Fprintf(w, "  %s\n", tr)
			}
		}
	}

	// E8: complexity.
	section("E8", "message complexity (Section 4.3)")
	fmt.Fprint(w, core.MessageComplexity(d3.Service))

	// E9: theorem verdicts.
	section("E9", "Section-5 correctness verdicts")
	e9 := []struct {
		name, src string
		opts      compose.VerifyOptions
	}{
		{"elementary", "SPEC a1; exit ENDSPEC", compose.VerifyOptions{}},
		{"sequence", "SPEC a1; b2; c3; exit ENDSPEC", compose.VerifyOptions{}},
		{"choice", "SPEC a1; c3; b2; exit [] e1; b2; exit ENDSPEC", compose.VerifyOptions{}},
		{"parallel-rejoin", "SPEC a1; exit >> (b2; exit ||| c3; exit) >> d1; exit ENDSPEC", compose.VerifyOptions{}},
		{"example2 (bounded)", example2, compose.VerifyOptions{ObsDepth: 6, MaxStates: 60000}},
	}
	for _, c := range e9 {
		d := derive(c.src, core.Options{})
		rep, err := compose.Verify(d.Service.Spec, d.Entities, c.opts)
		verdict := "ERROR"
		if err == nil {
			switch {
			case rep.Complete && rep.WeakBisimilar:
				verdict = "weakly bisimilar (exact)"
			case rep.Ok():
				verdict = fmt.Sprintf("traces equal to depth %d, no deadlock", rep.ObsDepth)
			default:
				verdict = "FAILED"
			}
		}
		fmt.Fprintf(w, "  %-22s %s\n", c.name, verdict)
	}

	// E10: centralized vs distributed.
	section("E10", "centralized baseline vs distributed derivation")
	for _, k := range []int{4, 16, 64} {
		src := "SPEC "
		for i := 0; i < k; i++ {
			src += fmt.Sprintf("a%d; ", i%3+1)
		}
		src += "exit ENDSPEC"
		d := derive(src, core.Options{})
		cen, err := core.DeriveCentralized(lotos.MustParse(src), 1)
		if err != nil {
			continue
		}
		fmt.Fprintf(w, "  events=%-3d centralized=%-4d distributed=%d\n",
			k, cen.MessageCount(), d.SendCount())
	}

	// E11: the race finding.
	section("E11", "disabling deviation and the Rel/interrupt race (broadcast mode)")
	sys, err := compose.New(d3.Entities, compose.Config{ChannelCap: 2,
		Limits: lts.Limits{MaxObsDepth: 5, MaxStates: 400000}})
	if err == nil {
		g, err := sys.Explore()
		if err == nil {
			fmt.Fprintf(w, "  composed states: %d, deadlocks: %d (the capacity-independent\n", g.NumStates(), len(g.Deadlocks()))
			fmt.Fprintf(w, "  Rel/interrupt race — see EXPERIMENTS.md E11)\n")
		}
	}

	// E13: optimizer.
	section("E13", "verified message optimizer ([Khen 89])")
	dOpt := derive(`SPEC A WHERE PROC A = a1; b2; A [] c1; exit END ENDSPEC`, core.Options{})
	res, err := compose.OptimizeMessages(dOpt.Service.Spec, dOpt.Entities,
		compose.VerifyOptions{ObsDepth: 6, MaxStates: 60000})
	if err == nil {
		fmt.Fprintf(w, "  tail-recursive service: %d -> %d messages (%d candidates tried)\n",
			res.Before, res.After, res.Tried)
	}

	// E14: handshake.
	section("E14", "interrupt implementations on a data-transfer phase")
	for _, mode := range []core.InterruptMode{core.InterruptBroadcast, core.InterruptHandshake} {
		name := "broadcast"
		capacity := 0
		if mode == core.InterruptHandshake {
			name = "handshake"
			capacity = 4
		}
		d := derive(dataPhase, core.Options{Interrupt: mode})
		rep, err := compose.Verify(d.Service.Spec, d.Entities,
			compose.VerifyOptions{ObsDepth: 6, MaxStates: 200000, ChannelCap: capacity})
		if err != nil {
			continue
		}
		fmt.Fprintf(w, "  %-10s messages=%-3d traces-equal=%-5v deadlocks=%d\n",
			name, d.SendCount(), rep.TracesEqual, rep.ComposedDeadlocks)
	}
	hs := derive(example3, core.Options{Interrupt: core.InterruptHandshake})
	sysHS, err := compose.New(hs.Entities, compose.Config{ChannelCap: 4,
		Limits: lts.Limits{MaxObsDepth: 5, MaxStates: 400000}})
	if err == nil {
		if g, err := sysHS.Explore(); err == nil {
			fmt.Fprintf(w, "  handshake on Example 3: deadlocks=%d (the E11 race is resolved)\n",
				len(g.Deadlocks()))
		}
	}

	// E16: mutation kill rate.
	section("E16", "verifier sensitivity: mutation kill rate")
	dm := derive("SPEC a1; b2; c3; exit ENDSPEC", core.Options{})
	killed, total := 0, 0
	for _, m := range mutate.Generate(dm.Entities) {
		total++
		rep, err := compose.Verify(dm.Service.Spec, m.Entities,
			compose.VerifyOptions{ObsDepth: 6, MaxStates: 100000})
		if err != nil || !rep.Ok() {
			killed++
		}
	}
	fmt.Fprintf(w, "  %d/%d mutants killed\n", killed, total)

	// E15: ARQ loss sweep. Every run is a seeded lockstep simulation, so
	// the table is the same on every regeneration.
	section("E15", "error recovery over a lossy medium (Section 6)")
	runs := 10
	if quick {
		runs = 4
	}
	fmt.Fprintf(w, "  run seeds 1..%d\n", runs)
	dLoss := derive("SPEC a1; b2; c3; exit >> d2; e1; exit ENDSPEC", core.Options{})
	for _, loss := range []float64{0, 0.3, 0.6} {
		bare, arq := 0, 0
		for seed := 1; seed <= runs; seed++ {
			r1, err := sim.Run(dLoss.Entities, sim.Config{
				Seed:   int64(seed),
				Medium: medium.Config{LossRate: loss},
			})
			if err == nil && r1.Completed {
				bare++
			}
			r2, err := sim.Run(dLoss.Entities, sim.Config{
				Seed:     int64(seed),
				Reliable: true,
				Medium:   medium.Config{LossRate: loss},
			})
			if err == nil && r2.Completed {
				arq++
			}
		}
		fmt.Fprintf(w, "  loss=%.0f%%  bare=%d/%d  arq=%d/%d\n", loss*100, bare, runs, arq, runs)
	}

	fmt.Fprintf(w, "\nall experiments regenerated in %s\n", time.Since(start).Round(time.Millisecond))
}
