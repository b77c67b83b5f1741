package main

import (
	"fmt"
	"io"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/lotos"
)

// runDerive is `pg derive`: it reads a service specification and emits the
// derived protocol entity specifications, one per service access point.
//
// Flags:
//
//	-attrs       also print node numbering and SP/EP/AP attributes (Fig. 4)
//	-place N     emit only the entity for place N
//	-raw         keep the raw Table-3 output (no empty-elimination)
//	-1986        restrict the input to the original SIGCOMM'86 subset
//	-handshake   use the Section-3.3 request/acknowledge interrupt implementation
//	-complexity  also print the Section 4.3 message-complexity table, check
//	             it against the derived send count (exit 1 on a mismatch)
//	             and compare it with the centralized "trivial solution"
//	             baseline of Section 3
//	-pernode     with -complexity, list the cost of every operator occurrence
//	-server N    with -complexity, the baseline's server place (0 = smallest)
func runDerive(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := newFlagSet("derive", "[flags] service.spec", stderr)
	attrs := fs.Bool("attrs", false, "print the attributed syntax tree (Figure 4)")
	place := fs.Int("place", 0, "emit only the entity for this place (0 = all)")
	raw := fs.Bool("raw", false, "keep the raw Table-3 output")
	dialect86 := fs.Bool("1986", false, "restrict to the SIGCOMM'86 operator subset")
	complexity := fs.Bool("complexity", false, "print the message-complexity table and the centralized baseline")
	perNode := fs.Bool("pernode", false, "with -complexity: per-operator-occurrence costs")
	server := fs.Int("server", 0, "with -complexity: centralized baseline server place")
	handshake := fs.Bool("handshake", false, "use the Section-3.3 request/acknowledge interrupt implementation")
	sp := parseInput(fs, args, stdin, stderr)
	if sp == nil {
		return cli.ExitUsage
	}
	mode := core.InterruptBroadcast
	if *handshake {
		mode = core.InterruptHandshake
	}
	d, err := core.Derive(sp, core.Options{KeepRedundant: *raw, Dialect1986: *dialect86, Interrupt: mode})
	if err != nil {
		fmt.Fprintln(stderr, "pg derive:", err)
		fmt.Fprintln(stderr, "pg derive: see Sections 3.2-3.3 of the paper for the restrictions R1-R3")
		return cli.ExitFail
	}
	if *attrs {
		fmt.Fprintln(stdout, "-- Attributed syntax tree (Step 2 of the algorithm, cf. Figure 4)")
		fmt.Fprint(stdout, d.Service.Tree())
		fmt.Fprintln(stdout)
	}
	if *complexity {
		c := core.MessageComplexityMode(d.Service, mode)
		fmt.Fprintln(stdout, "-- Message complexity (Section 4.3)")
		fmt.Fprint(stdout, c)
		if *perNode {
			fmt.Fprintln(stdout, "per-node costs:")
			for _, nc := range c.PerNode {
				fmt.Fprintf(stdout, "  node %-4d %-15s %3d messages\n", nc.Node, nc.Op, nc.Messages)
			}
		}
		if got := d.SendCount(); got != c.Total() {
			fmt.Fprintf(stdout, "WARNING: derived send count %d differs from accounting %d\n", got, c.Total())
			return cli.ExitFail
		}
		printBaseline(stdout, sp, c, *server)
		fmt.Fprintln(stdout)
	}
	if *place != 0 {
		e := d.Entity(*place)
		if e == nil {
			fmt.Fprintf(stderr, "pg derive: place %d is not a service place (places: %v)\n", *place, d.Places)
			return cli.ExitUsage
		}
		fmt.Fprint(stdout, e.String())
		return cli.ExitOK
	}
	fmt.Fprint(stdout, d.Render())
	return cli.ExitOK
}

// printBaseline compares the distributed message count with the
// centralized "trivial solution" of Section 3, which runs the whole service
// at one server place.
func printBaseline(w io.Writer, sp *lotos.Spec, c core.Complexity, server int) {
	cen, err := core.DeriveCentralized(sp, server)
	if err != nil {
		fmt.Fprintf(w, "\n-- Centralized baseline: not applicable (%v)\n", err)
		return
	}
	fmt.Fprintln(w, "\n-- Centralized baseline (Section 3 'trivial solution')")
	fmt.Fprintf(w, "server place:        %d\n", cen.Server)
	fmt.Fprintf(w, "messages:            %d (2 per remote primitive + halt broadcast)\n", cen.MessageCount())
	fmt.Fprintf(w, "distributed total:   %d\n", c.Total())
	switch {
	case c.Total() < cen.MessageCount():
		fmt.Fprintln(w, "verdict: distributed derivation needs fewer messages")
	case c.Total() == cen.MessageCount():
		fmt.Fprintln(w, "verdict: equal message counts")
	default:
		fmt.Fprintln(w, "verdict: centralized needs fewer messages for this service")
	}
}
