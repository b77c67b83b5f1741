// Command lotoscluster runs fleet-scale simulations of derived protocols: a
// scenario file describes a workload mix over service specifications, and
// the discrete-event engine executes every session — over a machine fleet —
// on one virtual clock, deterministically from the scenario seed.
//
// Usage:
//
//	lotoscluster [flags] scenario.json     (or "-" for stdin)
//
// Flags:
//
//	-sessions N    override the scenario's session count
//	-seed N        override the scenario's seed
//	-replicas N    override the scenario's replica count
//	-router R      override the routing policy (round-robin, least-loaded, affinity)
//	-json          emit the full result as JSON
//	-fingerprint   print only the canonical deterministic fingerprint
//	               (two runs of one scenario must print identical bytes)
//	-replay N      re-execute session N through the ordinary simulator and
//	               verify it against the cluster's recorded trace digest
//
// The exit code is 0 on success, 1 when a replay diverges, 2 on bad input.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/cluster"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lotoscluster", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sessions := fs.Int("sessions", 0, "override the scenario's session count")
	seed := fs.Int64("seed", 0, "override the scenario's seed")
	seedSet := false
	replicas := fs.Int("replicas", 0, "override the scenario's replica count")
	router := fs.String("router", "", "override the routing policy")
	asJSON := fs.Bool("json", false, "emit the full result as JSON")
	fingerprint := fs.Bool("fingerprint", false, "print only the deterministic fingerprint")
	replay := fs.Int("replay", -1, "replay this session id and verify it against the run")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: lotoscluster [flags] scenario.json\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			seedSet = true
		}
	})

	path := fs.Arg(0)
	var sc *cluster.Scenario
	var err error
	if path == "-" {
		src, rerr := io.ReadAll(stdin)
		if rerr != nil {
			fmt.Fprintln(stderr, "lotoscluster:", rerr)
			return cli.ExitUsage
		}
		sc, err = cluster.ParseScenario(src, ".")
	} else if path == "" {
		fmt.Fprintln(stderr, "lotoscluster: missing scenario file (use '-' for stdin)")
		fs.Usage()
		return cli.ExitUsage
	} else {
		sc, err = cluster.LoadScenario(path)
	}
	if err != nil {
		fmt.Fprintln(stderr, "lotoscluster:", err)
		return cli.ExitUsage
	}
	if *sessions > 0 {
		sc.Sessions = *sessions
	}
	if seedSet {
		sc.Seed = *seed
	}
	if *replicas > 0 {
		sc.Replicas = *replicas
	}
	if *router != "" {
		sc.Router = *router
	}
	if *replay >= 0 {
		sc.KeepSessions = true // replay needs the per-session records
	}

	m, err := cluster.Build(sc)
	if err != nil {
		fmt.Fprintln(stderr, "lotoscluster:", err)
		return cli.ExitUsage
	}
	res, err := m.Run()
	if err != nil {
		fmt.Fprintln(stderr, "lotoscluster:", err)
		return cli.ExitFail
	}

	if *replay >= 0 {
		return runReplay(m, res, *replay, stdout, stderr)
	}
	if *fingerprint {
		fmt.Fprint(stdout, res.Fingerprint())
		return cli.ExitOK
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(stderr, "lotoscluster:", err)
			return cli.ExitFail
		}
		return cli.ExitOK
	}
	printResult(stdout, res)
	return cli.ExitOK
}

// runReplay re-executes one recorded session and prints its verified trace.
func runReplay(m *cluster.Model, res *cluster.Result, id int, stdout, stderr io.Writer) int {
	for _, rec := range res.Sessions {
		if rec.ID != id {
			continue
		}
		if rec.Outcome == "rejected" {
			fmt.Fprintf(stderr, "lotoscluster: session %d was rejected at admission; nothing to replay\n", id)
			return cli.ExitUsage
		}
		sim, err := m.ReplaySession(rec)
		if err != nil {
			fmt.Fprintln(stderr, "lotoscluster:", err)
			return cli.ExitFail
		}
		fmt.Fprintf(stdout, "session %d (class %s, seed %d, replica %d): %s, %d events, digest %016x — replay matches\n",
			rec.ID, rec.Class, rec.Seed, rec.Replica, rec.Outcome, rec.Events, rec.Digest)
		for i, ev := range sim.TraceStrings() {
			fmt.Fprintf(stdout, "  %3d. %s\n", i+1, ev)
		}
		return cli.ExitOK
	}
	fmt.Fprintf(stderr, "lotoscluster: no session %d in this run (%d sessions)\n", id, len(res.Sessions))
	return cli.ExitUsage
}

// printResult renders the human summary.
func printResult(w io.Writer, r *cluster.Result) {
	fmt.Fprintf(w, "scenario:   %s (seed %d, %s router, %d replica(s))\n", r.Scenario, r.Seed, r.Router, r.Replicas)
	fmt.Fprintf(w, "sessions:   %d arrived, %d admitted, %d rejected\n", r.Arrivals, r.Admitted, r.Rejected)
	fmt.Fprintf(w, "outcomes:   %d completed, %d deadlocked, %d stopped, %d stuck\n",
		r.Completed, r.Deadlocked, r.Stopped, r.Stuck)
	fmt.Fprintf(w, "events:     %d service primitives over %s virtual time\n", r.Events, r.VirtualDuration)
	fmt.Fprintf(w, "throughput: %.0f sessions/sec (%s wall)\n", r.SessionsPerSec, r.WallDuration.Round(time.Millisecond))
	fmt.Fprintf(w, "digest:     %016x\n", r.Digest)
	fmt.Fprintf(w, "%-10s %8s %8s %10s %10s %10s %10s %8s %10s\n",
		"class", "admitted", "rejected", "p50", "p95", "p99", "max", "jain", "slo")
	for _, c := range r.Classes {
		slo := "-"
		if c.SLOAttainment >= 0 {
			slo = fmt.Sprintf("%.1f%%", 100*c.SLOAttainment)
		}
		fmt.Fprintf(w, "%-10s %8d %8d %10s %10s %10s %10s %8.4f %10s\n",
			c.Name, c.Admitted, c.Rejected, c.P50.Round(time.Microsecond), c.P95.Round(time.Microsecond),
			c.P99.Round(time.Microsecond), c.Max.Round(time.Microsecond), c.Fairness, slo)
	}
	fmt.Fprintf(w, "replicas:   fairness %.4f\n", r.ReplicaFairness)
	for i, rs := range r.ReplicaStats {
		fmt.Fprintf(w, "  replica %d: %d admitted, busy %s (%.1f%% utilized)\n",
			i, rs.Admitted, rs.Busy.Round(time.Microsecond), 100*rs.Utilization)
	}
}
