package main

// The live smoke suite: pgdeploy is exercised as a real binary, its
// entities as real OS processes over loopback TCP. Three gates:
//
//   - TestLiveSmoke is the corpus differential: every corpus spec is
//     deployed once per seed and the session outcome must be
//     byte-identical to the in-process lockstep simulation with the same
//     seed, with the recorded logs earning the conformance verdict.
//   - TestLiveSmallCap runs entities past a tiny machine state cap live:
//     their processes derive the rows beyond it on every visit and still
//     match the simulation.
//   - TestLiveCrashRestart kills an entity process mid-session (the
//     deterministic crash injection), checks the truncated logs are
//     classified incomplete-with-accepted-prefix, then restarts the
//     entity appending to its log and checks the restart marker keeps the
//     verdict explicitly incomplete.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fsm"
	"repro/internal/lotos"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/wire/conformance"
)

// smokeMaxStates and smokeMaxEvents mirror the in-process differential
// sweep (internal/wire session tests).
const (
	smokeMaxStates = 1024
	smokeMaxEvents = 24
)

var (
	buildOnce sync.Once
	buildBin  string
	buildErr  error
)

// pgdeployBin builds the pgdeploy binary once per test run.
func pgdeployBin(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "pgdeploy-bin-*")
		if err != nil {
			buildErr = err
			return
		}
		buildBin = filepath.Join(dir, "pgdeploy")
		cmd := exec.Command("go", "build", "-o", buildBin, ".")
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return buildBin
}

// driverRun is one pgdeploy invocation's observable result.
type driverRun struct {
	rep    Report
	code   int
	stdout string
	stderr string
}

// checkVerdictConsistent requires the conformance verdict to agree with
// the lockstep simulation's classification: the recorded trace is always a
// service trace, accepted sessions exit 0, and a deadlock verdict is
// legitimate exactly when the simulation deadlocks too (some corpus
// services — barrier among them — genuinely deadlock, and the checker
// must say so rather than bless the run).
func checkVerdictConsistent(t *testing.T, conf *conformance.Report, simRes *sim.Result, code int) {
	t.Helper()
	if conf == nil {
		t.Fatal("no conformance report")
	}
	if !conf.TraceAccepted {
		t.Fatalf("recorded trace %v not accepted as a service trace (%s)", conf.Trace, conf.Reason)
	}
	switch conf.Verdict {
	case conformance.VerdictAccepted:
		if code != 0 {
			t.Fatalf("exit status %d for an accepted session", code)
		}
	case conformance.VerdictDeadlock:
		if !simRes.Deadlocked {
			t.Fatalf("deadlock verdict (%s) but the lockstep run did not deadlock", conf.Reason)
		}
		if code != 2 {
			t.Fatalf("exit status %d, want 2 for a deadlock verdict", code)
		}
	default:
		t.Fatalf("verdict %s (%s), want accepted or deadlock", conf.Verdict, conf.Reason)
	}
}

// runPgdeploy runs the binary with -json and parses the report.
func runPgdeploy(t *testing.T, args ...string) *driverRun {
	t.Helper()
	cmd := exec.Command(pgdeployBin(t), append([]string{"-json"}, args...)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	run := &driverRun{stdout: stdout.String(), stderr: stderr.String()}
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("pgdeploy %v: %v\n%s", args, err, run.stderr)
		}
		run.code = ee.ExitCode()
	}
	if err := json.Unmarshal(stdout.Bytes(), &run.rep); err != nil {
		t.Fatalf("pgdeploy %v: bad report %q: %v\n%s", args, run.stdout, err, run.stderr)
	}
	return run
}

// TestLiveSmoke is the corpus differential over real processes: for every
// corpus spec and seed, the deployed session's outcome is byte-identical
// to sim.Run with the same seed, and
// (disabling specs excepted, as everywhere in the repo) the
// recorded logs earn the accepted conformance verdict.
func TestLiveSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("live deployments are wall-clock-bound; skipped in -short")
	}
	pgdeployBin(t)
	files, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.spec"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus specs found: %v", err)
	}
	for _, file := range files {
		file := file
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		name := strings.TrimSuffix(filepath.Base(file), ".spec")
		disabling := strings.Contains(string(src), "[>")
		for seed := int64(0); seed < 2; seed++ {
			seed := seed
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				t.Parallel()
				sp, err := lotos.Parse(string(src))
				if err != nil {
					t.Fatal(err)
				}
				d, err := core.Derive(sp, core.Options{})
				if err != nil {
					t.Fatal(err)
				}
				fleet := fsm.CompileEntities(d.Entities, fsm.Config{MaxStates: smokeMaxStates})
				simRes, err := sim.Run(d.Entities, sim.Config{
					Seed: seed, MaxEvents: smokeMaxEvents,
					Fleet: fleet,
				})
				if err != nil {
					t.Fatalf("lockstep run: %v", err)
				}

				run := runPgdeploy(t,
					"-spec", file,
					"-seed", fmt.Sprint(seed),
					"-max-events", fmt.Sprint(smokeMaxEvents),
					"-max-states", fmt.Sprint(smokeMaxStates),
					"-logdir", t.TempDir(),
				)
				if run.rep.Aborted {
					t.Fatalf("session aborted: %s\n%s", run.rep.Reason, run.stderr)
				}
				if got, want := run.rep.Canonical, wire.CanonicalResult(simRes); got != want {
					t.Fatalf("live deployment diverges from lockstep\n live: %s\n sim:  %s", got, want)
				}
				if disabling {
					return
				}
				checkVerdictConsistent(t, run.rep.Conformance, simRes, run.code)
			})
		}
	}
}

// TestLiveSmallCap runs deployments whose machines hit a tiny state cap:
// anbn (non-regular; its entities exceed any finite cap) and barrier, both
// with most rows derived on every visit instead of retained, each process
// on its own machine — and both match the in-process simulation configured
// identically.
func TestLiveSmallCap(t *testing.T) {
	if testing.Short() {
		t.Skip("live deployments are wall-clock-bound; skipped in -short")
	}
	cases := []struct {
		name      string
		spec      string
		maxStates int
	}{
		{"anbn-cap16", filepath.Join("..", "..", "specs", "anbn.spec"), 16},
		{"barrier-cap2", filepath.Join("..", "..", "specs", "barrier.spec"), 2},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			src, err := os.ReadFile(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			sp, err := lotos.Parse(string(src))
			if err != nil {
				t.Fatal(err)
			}
			d, err := core.Derive(sp, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			fleet := fsm.CompileEntities(d.Entities, fsm.Config{MaxStates: tc.maxStates})
			simRes, err := sim.Run(d.Entities, sim.Config{
				Seed: 1, MaxEvents: smokeMaxEvents,
				Fleet: fleet,
			})
			if err != nil {
				t.Fatal(err)
			}

			run := runPgdeploy(t,
				"-spec", tc.spec,
				"-seed", "1",
				"-max-events", fmt.Sprint(smokeMaxEvents),
				"-max-states", fmt.Sprint(tc.maxStates),
				"-logdir", t.TempDir(),
			)
			if run.rep.Aborted {
				t.Fatalf("session aborted: %s\n%s", run.rep.Reason, run.stderr)
			}
			if got, want := run.rep.Canonical, wire.CanonicalResult(simRes); got != want {
				t.Fatalf("live deployment diverges from lockstep\n live: %s\n sim:  %s", got, want)
			}
			checkVerdictConsistent(t, run.rep.Conformance, simRes, run.code)
		})
	}
}

// TestLiveCrashRestart is the crash/restart conformance contract over real
// processes: a deterministic crash injection kills one entity after its
// Nth logged event; the surviving logs must be classified incomplete with
// the truncated trace accepted as a service-trace prefix. Restarting the
// entity appends to its log behind a restart marker, which keeps the
// verdict explicitly incomplete even when the restarted session runs to a
// clean end.
func TestLiveCrashRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("live deployments are wall-clock-bound; skipped in -short")
	}
	specFile := filepath.Join(t.TempDir(), "pingpong.spec")
	if err := os.WriteFile(specFile,
		[]byte("SPEC read1; write2; read1; write2; exit ENDSPEC\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Kill place 2 after it logged its first event: the session aborts,
	// place 2's log is truncated (no end record), and the conformance
	// checker classifies the merged prefix incomplete — but still replays
	// it against the service.
	t.Run("truncated-trace", func(t *testing.T) {
		run := runPgdeploy(t,
			"-spec", specFile, "-seed", "1", "-logdir", t.TempDir(),
			"-crash-place", "2", "-crash-after-events", "1",
		)
		if !run.rep.Aborted {
			t.Fatalf("crashed session not aborted: %+v", run.rep)
		}
		if run.rep.Entities["2"] == "" || !strings.Contains(run.rep.Entities["2"], "exit status 3") {
			t.Errorf("entity 2 exit = %q, want exit status 3", run.rep.Entities["2"])
		}
		conf := run.rep.Conformance
		if conf.Verdict != conformance.VerdictIncomplete {
			t.Fatalf("verdict %s (%s), want incomplete", conf.Verdict, conf.Reason)
		}
		if !conf.TraceAccepted {
			t.Fatalf("truncated trace %v not accepted as a service prefix (%s)", conf.Trace, conf.Reason)
		}
		if len(conf.Trace) < 2 {
			t.Fatalf("trace %v, want at least read1 write2", conf.Trace)
		}
		if conf.Complete {
			t.Fatal("crashed session reported complete")
		}
		if run.code != 2 {
			t.Fatalf("exit status %d, want 2 for a non-accepted verdict", run.code)
		}
	})

	// Crash place 2 after its first event, then restart it with its log
	// appended: the start record of the relaunch opens a fresh numbering
	// epoch (the pre-crash segment's events cannot be merged into the new
	// session and only the restart marker survives), the second session
	// runs to a clean end, the full trace is recorded and accepted — and
	// the restart marker still downgrades the verdict to incomplete,
	// because a log with a restart may be missing observations.
	t.Run("restart", func(t *testing.T) {
		logdir := t.TempDir()
		first := runPgdeploy(t,
			"-spec", specFile, "-seed", "1", "-logdir", logdir,
			"-crash-place", "2", "-crash-after-events", "1",
		)
		if !first.rep.Aborted {
			t.Fatalf("crashed session not aborted: %+v", first.rep)
		}
		if first.rep.Conformance.Verdict != conformance.VerdictIncomplete {
			t.Fatalf("first verdict %s, want incomplete", first.rep.Conformance.Verdict)
		}

		second := runPgdeploy(t,
			"-spec", specFile, "-seed", "1", "-logdir", logdir,
			"-restart-place", "2",
		)
		if second.rep.Aborted {
			t.Fatalf("restarted session aborted: %s\n%s", second.rep.Reason, second.stderr)
		}
		conf := second.rep.Conformance
		if conf.Restarts != 1 {
			t.Fatalf("restarts %d, want 1", conf.Restarts)
		}
		if conf.Verdict != conformance.VerdictIncomplete {
			t.Fatalf("restarted verdict %s (%s), want incomplete", conf.Verdict, conf.Reason)
		}
		if !conf.TraceAccepted || conf.Gaps != 0 {
			t.Fatalf("restarted session trace %v (gaps %d) not accepted: %s",
				conf.Trace, conf.Gaps, conf.Reason)
		}
		want := []string{"read1", "write2", "read1", "write2"}
		if len(conf.Trace) != len(want) {
			t.Fatalf("restarted trace %v, want %v", conf.Trace, want)
		}
		for i := range want {
			if conf.Trace[i] != want[i] {
				t.Fatalf("restarted trace %v, want %v", conf.Trace, want)
			}
		}

		// The standalone checker mode reaches the same verdict on the same
		// log files.
		cmd := exec.Command(pgdeployBin(t), "-check", "-spec", specFile,
			filepath.Join(logdir, "entity-1.ndjson"), filepath.Join(logdir, "entity-2.ndjson"))
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		err := cmd.Run()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Fatalf("pgdeploy -check: err %v, want exit status 2", err)
		}
		var checked conformance.Report
		if err := json.Unmarshal(stdout.Bytes(), &checked); err != nil {
			t.Fatalf("check report %q: %v", stdout.String(), err)
		}
		if checked.Verdict != conformance.VerdictIncomplete || checked.Restarts != 1 {
			t.Fatalf("check verdict %s restarts %d, want incomplete with 1 restart",
				checked.Verdict, checked.Restarts)
		}
	})
}
