package compose

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lotos"
	"repro/internal/lts"
)

// verifySrc derives the protocol for a service source and checks the
// Section-5 correctness relation.
func verifySrc(t testing.TB, src string, opts VerifyOptions) *Report {
	t.Helper()
	d, err := core.Derive(lotos.MustParse(src), core.Options{})
	if err != nil {
		t.Fatalf("derive: %v", err)
	}
	rep, err := Verify(d.Service.Spec, d.Entities, opts)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	return rep
}

// wantOk asserts that the derived protocol provides exactly the service.
func wantOk(t *testing.T, src string, opts VerifyOptions) *Report {
	t.Helper()
	rep := verifySrc(t, src, opts)
	if !rep.Ok() {
		t.Errorf("verification failed for %q:\n%s", src, rep.Summary())
	}
	return rep
}

// --- E9: the Section 5 theorem on [>-free services --------------------------

func TestE9_Theorem_Elementary(t *testing.T) {
	// The base case of the induction (Section 5.3.2): S = a_i; exit.
	rep := wantOk(t, "SPEC a1; exit ENDSPEC", VerifyOptions{})
	if !rep.Complete || !rep.WeakBisimilar {
		t.Errorf("expected exact weak bisimilarity:\n%s", rep.Summary())
	}
}

func TestE9_Theorem_Sequences(t *testing.T) {
	for _, src := range []string{
		"SPEC a1; b2; exit ENDSPEC",
		"SPEC a1; b2; c3; exit ENDSPEC",
		"SPEC a1; b2; a1; b2; exit ENDSPEC",
		"SPEC a1; exit >> b2; exit ENDSPEC",
		"SPEC a1; b2; exit >> c1; exit >> d3; exit ENDSPEC",
		"SPEC a1; b1; c1; exit ENDSPEC",
	} {
		rep := wantOk(t, src, VerifyOptions{})
		if !rep.Complete || !rep.WeakBisimilar {
			t.Errorf("%s: expected exact weak bisimilarity:\n%s", src, rep.Summary())
		}
	}
}

func TestE9_Theorem_Choice(t *testing.T) {
	for _, src := range []string{
		"SPEC a1; b2; exit [] c1; b2; exit ENDSPEC",
		"SPEC a1; b2; exit [] a1; c2; exit ENDSPEC",
		// Alternative messages needed: place 3 only in the left alternative.
		"SPEC a1; c3; b2; exit [] e1; b2; exit ENDSPEC",
	} {
		rep := wantOk(t, src, VerifyOptions{})
		if !rep.Complete || !rep.WeakBisimilar {
			t.Errorf("%s: expected exact weak bisimilarity:\n%s", src, rep.Summary())
		}
	}
}

func TestE9_Theorem_Parallel(t *testing.T) {
	for _, src := range []string{
		"SPEC a1; exit ||| b2; exit ENDSPEC",
		"SPEC a1; b2; exit ||| c3; d4; exit ENDSPEC",
		"SPEC (a1; exit ||| b2; exit) >> c3; exit ENDSPEC",
		"SPEC a1; exit >> (b2; exit ||| c3; exit) >> d1; exit ENDSPEC",
	} {
		rep := wantOk(t, src, VerifyOptions{})
		if !rep.Complete || !rep.WeakBisimilar {
			t.Errorf("%s: expected exact weak bisimilarity:\n%s", src, rep.Summary())
		}
	}
}

func TestE9_Theorem_SynchronizedParallel(t *testing.T) {
	for _, src := range []string{
		// Both branches synchronize on b2 at place 2.
		"SPEC a1; b2; exit |[b2]| c2; b2; exit ENDSPEC",
		"SPEC a1; exit || a1; exit ENDSPEC",
	} {
		rep := wantOk(t, src, VerifyOptions{})
		if !rep.Complete || !rep.WeakBisimilar {
			t.Errorf("%s: expected exact weak bisimilarity:\n%s", src, rep.Summary())
		}
	}
}

func TestE9_Theorem_Recursion(t *testing.T) {
	// Example 2: (a1)^n (b2)^n — infinite-state; bounded trace check.
	src := `SPEC A WHERE PROC A = (a1; A >> b2; exit) [] (a1; b2; exit) END ENDSPEC`
	rep := wantOk(t, src, VerifyOptions{ObsDepth: 6, MaxStates: 60000})
	if rep.Complete {
		t.Log("note: recursion explored to closure (unexpected but fine)")
	}
}

func TestE9_Theorem_TailRecursion(t *testing.T) {
	src := `SPEC A WHERE PROC A = a1; b2; A [] c1; exit END ENDSPEC`
	wantOk(t, src, VerifyOptions{ObsDepth: 6, MaxStates: 60000})
}

func TestE9_Theorem_MutualRecursion(t *testing.T) {
	src := `
SPEC A WHERE
  PROC A = a1; B END
  PROC B = b2; A [] c2; exit END
ENDSPEC`
	wantOk(t, src, VerifyOptions{ObsDepth: 6, MaxStates: 60000})
}

func TestE9_Theorem_Example5(t *testing.T) {
	src := `
SPEC A WHERE
  PROC A = (a1; b2; A >> c2; d3; exit) [] (e1; f3; exit) END
ENDSPEC`
	wantOk(t, src, VerifyOptions{ObsDepth: 6, MaxStates: 80000})
}

func TestE9_Theorem_Example7MultipleInstances(t *testing.T) {
	src := `SPEC B ||| B WHERE PROC B = (a1; (b2; exit ||| c3; exit)) >> g4; exit END ENDSPEC`
	wantOk(t, src, VerifyOptions{ObsDepth: 5, MaxStates: 200000, ChannelCap: 1})
}

func TestE9_Theorem_FileCopyWithoutDisable(t *testing.T) {
	// Example 3's process S without the interrupt wrapper.
	src := `
SPEC S WHERE
  PROC S = (read1; push2; S >> pop2; write3; exit)
        [] (eof1; make3; exit)
  END
ENDSPEC`
	wantOk(t, src, VerifyOptions{ObsDepth: 6, MaxStates: 120000})
}

// --- E11: the documented disabling deviation (Section 3.3) -------------------

func TestE11_DisableDeviationIsOneSided(t *testing.T) {
	// For services with "[>" the distributed implementation deviates from
	// the LOTOS semantics (shortcomings (i) and (ii) of Section 3.3): the
	// composed system exhibits extra interleavings (e.g. an action of the
	// normal part after the interrupt has occurred, because the interrupt
	// message is still in flight). The deviation is one-sided: every
	// service trace remains realizable.
	src := "SPEC a1; b2; c3; exit [> d3; exit ENDSPEC"
	rep := verifySrc(t, src, VerifyOptions{ObsDepth: 6})
	if len(rep.OnlyService) != 0 {
		t.Errorf("service traces lost by the implementation: %v", rep.OnlyService)
	}
	if len(rep.OnlyComposed) == 0 {
		t.Error("expected the documented extra interleavings, found none " +
			"(did the disabling implementation become exact?)")
	}
	for _, tr := range rep.OnlyComposed {
		// Every extra trace must involve the disabling event d3 — the
		// deviation is confined to interrupt timing.
		if !strings.Contains(tr, "d3") {
			t.Errorf("extra composed trace %q does not involve the interrupt", tr)
		}
	}
	if rep.ComposedDeadlocks != 0 {
		t.Errorf("composed deadlocks: %d", rep.ComposedDeadlocks)
	}
}

func TestE11_DisableServiceTracesPreserved(t *testing.T) {
	// All service traces are accepted by the composed system.
	src := "SPEC a1; b2; c3; exit [> d3; exit ENDSPEC"
	d, err := core.Derive(lotos.MustParse(src), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lim := lts.Limits{MaxObsDepth: 6}
	sg, err := lts.ExploreSpec(d.Service.Spec, lim)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(d.Entities, Config{ChannelCap: 2, Limits: lim})
	if err != nil {
		t.Fatal(err)
	}
	cg, err := sys.Explore()
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range lts.WeakTraces(sg, 6) {
		if !lts.AcceptsTrace(cg, tr) {
			t.Errorf("service trace %q not realizable by the composed protocol", tr)
		}
	}
}

// --- medium behaviour --------------------------------------------------------

func TestChannelCapacityBlocksSends(t *testing.T) {
	// Two parallel cross-place sequences force two messages on the same
	// channel; capacity 1 serializes them but must not deadlock.
	src := "SPEC (a1; b2; exit ||| c1; d2; exit) ENDSPEC"
	rep := wantOk(t, src, VerifyOptions{ChannelCap: 1})
	if rep.ComposedDeadlocks != 0 {
		t.Errorf("deadlocks with capacity 1: %s", rep.Summary())
	}
	rep2 := wantOk(t, src, VerifyOptions{ChannelCap: 4})
	if rep2.ComposedGraph.NumStates() < rep.ComposedGraph.NumStates() {
		t.Error("larger capacity cannot shrink the state space")
	}
}

func TestFIFOOrderingIsRespected(t *testing.T) {
	// a1;b2;a1;b2: two sequence messages 1->2 with the same node id but
	// different positions; FIFO keeps them ordered, so the service order
	// b2 after each a1 holds exactly.
	wantOk(t, "SPEC a1; b2; a1; b2; exit ENDSPEC", VerifyOptions{})
}

func TestNewRejectsUnresolvedEntities(t *testing.T) {
	bad := map[int]*lotos.Spec{1: lotos.MustParse("SPEC A ENDSPEC")}
	if _, err := New(bad, Config{}); err == nil {
		t.Error("expected resolution error")
	}
}

func TestReportSummaryRendering(t *testing.T) {
	rep := wantOk(t, "SPEC a1; b2; exit ENDSPEC", VerifyOptions{})
	s := rep.Summary()
	for _, want := range []string{"service:", "composed:", "weak bisimulation", "verdict: OK"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestVerifyDetectsBrokenProtocol(t *testing.T) {
	// Sabotage: swap the entities of places 1 and 2 of a derived protocol.
	d, err := core.Derive(lotos.MustParse("SPEC a1; b2; exit ENDSPEC"), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	broken := map[int]*lotos.Spec{1: d.Entities[2], 2: d.Entities[1]}
	rep, err := Verify(d.Service.Spec, broken, VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ok() {
		t.Error("verification accepted a sabotaged protocol")
	}
}

func TestVerifyDetectsMissingSynchronization(t *testing.T) {
	// Hand-written entities without any synchronization messages: the
	// composed system can do b2 before a1, which the service forbids.
	service := lotos.MustParse("SPEC a1; b2; exit ENDSPEC")
	entities := map[int]*lotos.Spec{
		1: lotos.MustParse("SPEC a1; exit ENDSPEC"),
		2: lotos.MustParse("SPEC b2; exit ENDSPEC"),
	}
	rep, err := Verify(service, entities, VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ok() {
		t.Error("verification accepted an unsynchronized protocol")
	}
	found := false
	for _, tr := range rep.OnlyComposed {
		if strings.HasPrefix(tr, "b2") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected the premature b2 trace, diff: %v / %v", rep.OnlyService, rep.OnlyComposed)
	}
}

// TestRelayEquivRunsOnQuotient pins the weak engine's branching pre-pass
// on a closed product: the 3-instance relay's product has thousands of
// τ-SCCs (2,475 with 258,224 saturated pairs when saturated directly), but
// its branching quotient is tiny, and Report.Equiv counts the graph the
// weak refinement runs on.
func TestRelayEquivRunsOnQuotient(t *testing.T) {
	rep := wantOk(t, "SPEC Ring ||| Ring ||| Ring WHERE PROC Ring = t1; t2; exit END ENDSPEC",
		VerifyOptions{ChannelCap: 1, ObsDepth: 12, MaxStates: 1000000})
	if !rep.Complete || !rep.WeakBisimilar || rep.Equiv == nil {
		t.Fatalf("expected a closed, weakly bisimilar relay:\n%s", rep.Summary())
	}
	if st := rep.Equiv; st.TauSCCs >= 100 || st.SaturationEdges >= 1000 {
		t.Errorf("weak refinement ran on %d τ-SCCs with %d saturation edges; want < 100 and < 1000 (pre-pass missing?)",
			st.TauSCCs, st.SaturationEdges)
	}
}

// TestVerifyOnlyReadsEntities pins the contract concurrent callers rely on:
// Verify resolves and explores private clones of the entities (their
// machines'), so the trees it is handed are unchanged afterwards, on the
// monolithic, symmetry-fallback and compositional paths.
func TestVerifyOnlyReadsEntities(t *testing.T) {
	for _, c := range []struct {
		src  string
		opts VerifyOptions
	}{
		{relaySrc(2), VerifyOptions{Reductions: RedPOR.With(RedSymmetry), Faults: FaultModel{Loss: true}}},
		{"SPEC A WHERE PROC A = (a1; A >> b2; exit) [] (a1; b2; exit) END ENDSPEC", VerifyOptions{ObsDepth: 4}},
		{"SPEC A WHERE PROC A = (a1; A >> b2; exit) [] (a1; b2; exit) END ENDSPEC", VerifyOptions{ObsDepth: 4, Compositional: true}},
	} {
		d := deriveSrc(t, c.src)
		before := cloneEntityMap(d.Entities)
		if _, err := Verify(lotos.CloneSpec(d.Service.Spec), d.Entities, c.opts); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(before, d.Entities) {
			t.Errorf("%s: Verify changed the entity trees", c.src)
		}
	}
}
