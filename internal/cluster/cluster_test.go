package cluster

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// testScenario is a three-class mix over the three arrival families and all
// derivation shapes the engine must multiplex: sequencing, parallelism and
// bounded recursion.
func testScenario(sessions, replicas int, router string, seed int64) *Scenario {
	return &Scenario{
		Name:         "test",
		Seed:         seed,
		Sessions:     sessions,
		Replicas:     replicas,
		Router:       router,
		KeepSessions: true,
		Classes: []ClassSpec{
			{
				Name: "seq", Source: "SPEC a1; b2; c3; exit ENDSPEC",
				Arrival: DistPoisson, RatePerSec: 2000, SLO: "40ms",
			},
			{
				Name: "par", Source: "SPEC a1; exit ||| b2; exit ENDSPEC",
				Arrival: DistGamma, RatePerSec: 1500, Shape: 0.7, SweepCost: "2us",
			},
			{
				// A deep pipeline with a tight event budget: its sessions hit
				// MaxEvents, exercising the "stopped" outcome.
				Name: "deep", Source: "SPEC a1; b2; c3; exit >> a1; b2; c3; exit ENDSPEC",
				Arrival: DistWeibull, RatePerSec: 1000, Shape: 1.5, MaxEvents: 4,
			},
		},
	}
}

func mustBuild(t *testing.T, sc *Scenario) *Model {
	t.Helper()
	m, err := Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mustRun(t *testing.T, m *Model) *Result {
	t.Helper()
	r, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRunDeterministic is the reproducibility contract: the same scenario
// run twice — on the same Model and on a freshly built one — produces
// byte-identical fingerprints, digests, and per-session records.
func TestRunDeterministic(t *testing.T) {
	sc := testScenario(400, 3, RouteLeastLoaded, 42)
	m := mustBuild(t, sc)
	r1 := mustRun(t, m)
	r2 := mustRun(t, m)
	r3 := mustRun(t, mustBuild(t, testScenario(400, 3, RouteLeastLoaded, 42)))
	if r1.Fingerprint() != r2.Fingerprint() {
		t.Fatalf("same model, two runs, different fingerprints:\n%s\nvs\n%s", r1.Fingerprint(), r2.Fingerprint())
	}
	if r1.Fingerprint() != r3.Fingerprint() {
		t.Fatalf("fresh model diverged:\n%s\nvs\n%s", r1.Fingerprint(), r3.Fingerprint())
	}
	if r1.Digest != r2.Digest || r1.Digest != r3.Digest {
		t.Fatalf("digests diverged: %x %x %x", r1.Digest, r2.Digest, r3.Digest)
	}
	if !reflect.DeepEqual(r1.Sessions, r2.Sessions) || !reflect.DeepEqual(r1.Sessions, r3.Sessions) {
		t.Fatal("per-session records diverged between runs")
	}
	// A different seed is a different run.
	other := mustRun(t, mustBuild(t, testScenario(400, 3, RouteLeastLoaded, 43)))
	if other.Fingerprint() == r1.Fingerprint() {
		t.Fatal("seed 43 reproduced seed 42 exactly")
	}
	// Sanity: everything arrived, everything finished.
	if r1.Arrivals != 400 || r1.Admitted+r1.Rejected != 400 {
		t.Fatalf("arrivals %d admitted %d rejected %d", r1.Arrivals, r1.Admitted, r1.Rejected)
	}
	if got := r1.Completed + r1.Deadlocked + r1.Stopped + r1.Stuck; got != r1.Admitted {
		t.Fatalf("finished %d of %d admitted", got, r1.Admitted)
	}
	if r1.Completed == 0 || r1.Events == 0 {
		t.Fatalf("no completions (%d) or no events (%d)", r1.Completed, r1.Events)
	}
}

// TestRunDeterministicAcrossGOMAXPROCS pins the single-threaded engine's
// independence from the Go scheduler: the fingerprint is the same at
// GOMAXPROCS=1 and at the ambient setting.
func TestRunDeterministicAcrossGOMAXPROCS(t *testing.T) {
	sc := testScenario(200, 2, RouteRoundRobin, 7)
	base := mustRun(t, mustBuild(t, sc))
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	pinned := mustRun(t, mustBuild(t, testScenario(200, 2, RouteRoundRobin, 7)))
	if base.Fingerprint() != pinned.Fingerprint() {
		t.Fatalf("GOMAXPROCS changed the run:\n%s\nvs\n%s", base.Fingerprint(), pinned.Fingerprint())
	}
}

// TestReplayMatchesCapturedSessions re-executes every recorded session
// through the ordinary simulator and requires trace-digest, event-count and
// outcome agreement; a tampered record must be detected.
func TestReplayMatchesCapturedSessions(t *testing.T) {
	m := mustBuild(t, testScenario(120, 2, RouteRoundRobin, 11))
	r := mustRun(t, m)
	if len(r.Sessions) != r.Arrivals {
		t.Fatalf("kept %d records for %d arrivals", len(r.Sessions), r.Arrivals)
	}
	replayed := 0
	for _, rec := range r.Sessions {
		if rec.Outcome == "rejected" {
			continue
		}
		if _, err := m.ReplaySession(rec); err != nil {
			t.Fatalf("session %d (%s): %v", rec.ID, rec.Class, err)
		}
		replayed++
	}
	if replayed == 0 {
		t.Fatal("no sessions to replay")
	}
	bad := r.Sessions[0]
	bad.Digest ^= 1
	if _, err := m.ReplaySession(bad); err == nil {
		t.Fatal("replay accepted a tampered digest")
	}
}

// TestAdmissionControl checks the token bucket: a tight rate rejects part
// of the offered load deterministically; no bucket admits everything.
func TestAdmissionControl(t *testing.T) {
	open := mustRun(t, mustBuild(t, testScenario(300, 1, "", 5)))
	if open.Rejected != 0 {
		t.Fatalf("no admission control, yet %d rejected", open.Rejected)
	}
	sc := testScenario(300, 1, "", 5)
	sc.Admission = &AdmissionSpec{RatePerSec: 500, Burst: 5} // offered ~4500/s
	tight := mustRun(t, mustBuild(t, sc))
	if tight.Rejected == 0 {
		t.Fatal("tight bucket rejected nothing")
	}
	if tight.Admitted+tight.Rejected != tight.Arrivals {
		t.Fatalf("admitted %d + rejected %d != arrivals %d", tight.Admitted, tight.Rejected, tight.Arrivals)
	}
	again := mustRun(t, mustBuild(t, func() *Scenario {
		s := testScenario(300, 1, "", 5)
		s.Admission = &AdmissionSpec{RatePerSec: 500, Burst: 5}
		return s
	}()))
	if again.Rejected != tight.Rejected {
		t.Fatalf("admission decisions not reproducible: %d vs %d", again.Rejected, tight.Rejected)
	}
}

// TestRouters checks each policy's placement invariant via the per-session
// records.
func TestRouters(t *testing.T) {
	t.Run("round-robin", func(t *testing.T) {
		r := mustRun(t, mustBuild(t, testScenario(90, 3, RouteRoundRobin, 9)))
		for i, rs := range r.ReplicaStats {
			if diff := int(rs.Admitted) - r.Admitted/3; diff < -1 || diff > 1 {
				t.Fatalf("replica %d got %d of %d admitted", i, rs.Admitted, r.Admitted)
			}
		}
	})
	t.Run("least-loaded", func(t *testing.T) {
		// Least-loaded only spreads when sessions overlap: with sessions
		// that finish before the next arrival every pick is replica 0 (the
		// tie-break). Make service slow enough that load stacks up.
		sc := testScenario(90, 3, RouteLeastLoaded, 9)
		for i := range sc.Classes {
			sc.Classes[i].SweepCost = "1ms"
		}
		r := mustRun(t, mustBuild(t, sc))
		for i, rs := range r.ReplicaStats {
			if rs.Admitted == 0 {
				t.Fatalf("replica %d idle under least-loaded", i)
			}
		}
		if r.ReplicaFairness < 0.9 {
			t.Fatalf("least-loaded fairness %f", r.ReplicaFairness)
		}
	})
	t.Run("affinity", func(t *testing.T) {
		r := mustRun(t, mustBuild(t, testScenario(90, 3, RouteAffinity, 9)))
		classReplica := map[string]int{}
		for _, rec := range r.Sessions {
			if rec.Outcome == "rejected" {
				continue
			}
			if prev, ok := classReplica[rec.Class]; ok && prev != rec.Replica {
				t.Fatalf("class %s on replicas %d and %d", rec.Class, prev, rec.Replica)
			}
			classReplica[rec.Class] = rec.Replica
		}
	})
}

// TestBuildRejectsBadScenarios covers scenario validation.
func TestBuildRejectsBadScenarios(t *testing.T) {
	cases := []struct {
		name string
		sc   *Scenario
	}{
		{"no sessions", &Scenario{Classes: []ClassSpec{{Source: "SPEC a1; exit ENDSPEC", RatePerSec: 1}}}},
		{"no classes", &Scenario{Sessions: 10}},
		{"bad router", func() *Scenario { s := testScenario(10, 1, "random", 1); return s }()},
		{"no source", &Scenario{Sessions: 10, Classes: []ClassSpec{{RatePerSec: 1}}}},
		{"bad rate", &Scenario{Sessions: 10, Classes: []ClassSpec{{Source: "SPEC a1; exit ENDSPEC"}}}},
		{"bad dist", &Scenario{Sessions: 10, Classes: []ClassSpec{{Source: "SPEC a1; exit ENDSPEC", RatePerSec: 1, Arrival: "pareto"}}}},
		{"gamma no shape", &Scenario{Sessions: 10, Classes: []ClassSpec{{Source: "SPEC a1; exit ENDSPEC", RatePerSec: 1, Arrival: DistGamma}}}},
		{"bad sweep cost", &Scenario{Sessions: 10, Classes: []ClassSpec{{Source: "SPEC a1; exit ENDSPEC", RatePerSec: 1, SweepCost: "fast"}}}},
		{"bad slo", &Scenario{Sessions: 10, Classes: []ClassSpec{{Source: "SPEC a1; exit ENDSPEC", RatePerSec: 1, SLO: "-1s"}}}},
		{"parse error", &Scenario{Sessions: 10, Classes: []ClassSpec{{Source: "SPEC a1; exit", RatePerSec: 1}}}},
		{"uncompilable entity", &Scenario{Sessions: 10, Classes: []ClassSpec{{
			Source:     `SPEC A WHERE PROC A = (a1; A >> b2; exit) [] (a1; b2; exit) END ENDSPEC`,
			RatePerSec: 1, CompileMaxStates: 64,
		}}}},
	}
	for _, c := range cases {
		if _, err := Build(c.sc); err == nil {
			t.Errorf("%s: Build accepted it", c.name)
		}
	}
}

// TestScenarioFile checks file loading: spec paths resolve against the
// scenario's directory and class names default to the spec basename.
func TestScenarioFile(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "ab.spec")
	if err := os.WriteFile(spec, []byte("SPEC a1; b2; exit ENDSPEC"), 0o644); err != nil {
		t.Fatal(err)
	}
	scn := filepath.Join(dir, "scn.json")
	body := `{"name":"file","seed":3,"sessions":25,"replicas":2,
		"classes":[{"spec":"ab.spec","ratePerSec":100}]}`
	if err := os.WriteFile(scn, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	sc, err := LoadScenario(scn)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Classes[0].Name != "ab" || sc.Classes[0].Source == "" {
		t.Fatalf("class not resolved: %+v", sc.Classes[0])
	}
	r := mustRun(t, mustBuild(t, sc))
	if r.Arrivals != 25 || r.Completed == 0 {
		t.Fatalf("file scenario run: %+v", r)
	}
	if _, err := ParseScenario([]byte(`{"sessions":1,"classes":[{"spec":"x","source":"y","ratePerSec":1}]}`), dir); err == nil {
		t.Error("accepted class with both spec and source")
	}
	if _, err := ParseScenario([]byte(`{nope`), dir); err == nil {
		t.Error("accepted malformed JSON")
	}
	if _, err := LoadScenario(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("loaded a nonexistent scenario file")
	}
}
