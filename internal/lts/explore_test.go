package lts

import (
	"strings"
	"testing"

	"repro/internal/lotos"
)

func mustGraph(t *testing.T, src string, lim Limits) *Graph {
	t.Helper()
	sp := lotos.MustParse(src)
	lotos.Number(sp)
	g, err := ExploreSpec(sp, lim)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestExploreSequential(t *testing.T) {
	g := mustGraph(t, "SPEC a1; b2; exit ENDSPEC", Limits{})
	// a1;b2;exit -> b2;exit -> exit -> stop
	if g.NumStates() != 4 {
		t.Fatalf("states = %d, want 4", g.NumStates())
	}
	if g.NumTransitions() != 3 {
		t.Fatalf("transitions = %d, want 3", g.NumTransitions())
	}
	if g.Truncated {
		t.Error("must not truncate")
	}
	if len(g.Deadlocks()) != 0 {
		t.Errorf("deadlocks = %v", g.Deadlocks())
	}
}

func TestExploreRecursive(t *testing.T) {
	// a^n b (tail recursion): finite graph because states repeat... the
	// occurrence stamps make each unfolding distinct, so the graph is
	// infinite and must truncate at the cap.
	g := mustGraph(t, "SPEC A WHERE PROC A = a1; A [] b1; exit END ENDSPEC", Limits{MaxStates: 200})
	if !g.Truncated {
		t.Error("recursive spec with occurrence stamping must truncate")
	}
	if g.NumStates() != 200 {
		t.Fatalf("states = %d, want 200 (cap)", g.NumStates())
	}
}

func TestDeadlockDetection(t *testing.T) {
	// Mismatched full synchronization deadlocks after a1.
	g := mustGraph(t, "SPEC a1; b2; exit || a1; c3; exit ENDSPEC", Limits{})
	dl := g.Deadlocks()
	if len(dl) != 1 {
		t.Fatalf("deadlocks = %v, want exactly one", dl)
	}
	// Successful termination is not a deadlock.
	g2 := mustGraph(t, "SPEC a1; exit ENDSPEC", Limits{})
	if len(g2.Deadlocks()) != 0 {
		t.Errorf("termination misreported as deadlock: %v", g2.Deadlocks())
	}
	// stop is a deadlock.
	g3 := mustGraph(t, "SPEC a1; stop ENDSPEC", Limits{})
	if len(g3.Deadlocks()) != 1 {
		t.Errorf("stop not reported: %v", g3.Deadlocks())
	}
}

func TestLabelsSet(t *testing.T) {
	g := mustGraph(t, "SPEC a1; exit ||| b2; exit ENDSPEC", Limits{})
	ls := g.Labels()
	joined := strings.Join(ls, " ")
	if !strings.Contains(joined, "a@1") || !strings.Contains(joined, "b@2") {
		t.Errorf("labels = %v", ls)
	}
}

func TestWeakTraces(t *testing.T) {
	g := mustGraph(t, "SPEC a1; b2; exit ENDSPEC", Limits{})
	trs := WeakTraces(g, 10)
	want := []string{"", "a1", "a1 b2", "a1 b2 delta"}
	if len(trs) != len(want) {
		t.Fatalf("traces = %v, want %v", trs, want)
	}
	for i := range want {
		if trs[i] != want[i] {
			t.Fatalf("traces = %v, want %v", trs, want)
		}
	}
}

func TestWeakTracesSkipInternal(t *testing.T) {
	g := mustGraph(t, "SPEC a1; exit >> b2; exit ENDSPEC", Limits{})
	trs := WeakTraces(g, 10)
	for _, tr := range trs {
		if strings.Contains(tr, "i") && !strings.Contains(tr, "delta") {
			// labels named "i" must never appear; "delta" contains no 'i'
			// except the check above is crude: assert directly
			t.Fatalf("internal action leaked into weak trace %q", tr)
		}
	}
	found := false
	for _, tr := range trs {
		if tr == "a1 b2 delta" {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing full trace, got %v", trs)
	}
}

func TestWeakTracesInterleaving(t *testing.T) {
	g := mustGraph(t, "SPEC a1; exit ||| b2; exit ENDSPEC", Limits{})
	trs := map[string]bool{}
	for _, tr := range WeakTraces(g, 4) {
		trs[tr] = true
	}
	for _, want := range []string{"a1 b2 delta", "b2 a1 delta"} {
		if !trs[want] {
			t.Errorf("missing interleaving %q in %v", want, trs)
		}
	}
}

func TestWeakTracesChoiceVsInternalChoice(t *testing.T) {
	// External choice and internal choice have the same weak traces but
	// differ in branching structure (checked by bisimulation elsewhere).
	ext := mustGraph(t, "SPEC a1; exit [] b1; exit ENDSPEC", Limits{})
	intl := mustGraph(t, "SPEC i; a1; exit [] i; b1; exit ENDSPEC", Limits{})
	e := WeakTraces(ext, 5)
	n := WeakTraces(intl, 5)
	if JoinTrace(e) != JoinTrace(n) {
		t.Errorf("weak trace sets differ:\n%v\n%v", e, n)
	}
}

func TestAcceptsTrace(t *testing.T) {
	g := mustGraph(t, "SPEC a1; (b2; exit [] c3; exit) ENDSPEC", Limits{})
	for _, ok := range []string{"", "a1", "a1 b2", "a1 c3", "a1 b2 delta"} {
		if !AcceptsTrace(g, ok) {
			t.Errorf("AcceptsTrace(%q) = false, want true", ok)
		}
	}
	for _, bad := range []string{"b2", "a1 a1", "a1 b2 c3"} {
		if AcceptsTrace(g, bad) {
			t.Errorf("AcceptsTrace(%q) = true, want false", bad)
		}
	}
}

func TestParseJoinTrace(t *testing.T) {
	if len(ParseTrace("")) != 0 {
		t.Error("empty trace must parse to nil")
	}
	tr := ParseTrace("a1 b2 delta")
	if len(tr) != 3 || tr[2] != "delta" {
		t.Errorf("parsed %v", tr)
	}
	if JoinTrace(tr) != "a1 b2 delta" {
		t.Error("join/parse mismatch")
	}
}

func TestExample2AnBnTraces(t *testing.T) {
	// Example 2 of the paper: traces have the shape a^n b^n for n >= 1.
	src := `SPEC A WHERE PROC A = (a1; A >> b2; exit) [] (a1; b2; exit) END ENDSPEC`
	g := mustGraph(t, src, Limits{MaxStates: 5000})
	trs := WeakTraces(g, 6)
	seen := map[string]bool{}
	for _, tr := range trs {
		seen[tr] = true
	}
	for _, want := range []string{"a1 b2 delta", "a1 a1 b2 b2", "a1 a1 a1 b2 b2 b2"} {
		if !seen[want] {
			t.Errorf("missing a^n b^n trace %q", want)
		}
	}
	for _, bad := range []string{"b2", "a1 b2 b2", "a1 a1 b2 delta", "a1 b2 a1"} {
		if seen[bad] {
			t.Errorf("invalid trace %q accepted", bad)
		}
	}
}

func TestLabelHelpers(t *testing.T) {
	if Internal().Observable() || !Delta().Observable() {
		t.Error("observability wrong")
	}
	if Internal().String() != "i" || Delta().String() != "delta" {
		t.Error("strings wrong")
	}
	ev := lotos.ServiceEvent("a", 1)
	if EventLabel(ev).Key() != ev.Gate() {
		t.Error("event label key mismatch")
	}
	if EventLabel(lotos.InternalEvent()).Kind != LInternal {
		t.Error("internal event must map to LInternal")
	}
	if Internal().Key() == Delta().Key() {
		t.Error("i and delta keys must differ")
	}
}

func TestDOTOutput(t *testing.T) {
	g := mustGraph(t, "SPEC a1; exit >> b2; exit ENDSPEC", Limits{})
	dot := g.DOT("demo")
	for _, want := range []string{
		"digraph lts", "rankdir=LR", `label="demo"`,
		`label="a1"`, "style=dashed, color=gray", `label="δ"`, "doublecircle",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
}
