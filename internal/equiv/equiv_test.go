package equiv

import (
	"testing"

	"repro/internal/lotos"
	"repro/internal/lts"
)

func graphOf(t testing.TB, src string) *lts.Graph {
	t.Helper()
	e, err := lotos.ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	res, err := lotos.Resolve(&lotos.Spec{Root: &lotos.DefBlock{Expr: e}})
	if err != nil {
		t.Fatal(err)
	}
	g, err := lts.Explore(lts.NewEnv(res), e, lts.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func wantWeakBisim(t *testing.T, a, b string, want bool) {
	t.Helper()
	ga, gb := graphOf(t, a), graphOf(t, b)
	if got := WeakBisimilar(ga, gb); got != want {
		t.Errorf("WeakBisimilar(%q, %q) = %v, want %v", a, b, got, want)
	}
}

func wantCongruent(t *testing.T, a, b string, want bool) {
	t.Helper()
	ga, gb := graphOf(t, a), graphOf(t, b)
	if got := ObservationCongruent(ga, gb); got != want {
		t.Errorf("ObservationCongruent(%q, %q) = %v, want %v", a, b, got, want)
	}
}

func TestWeakBisimBasics(t *testing.T) {
	wantWeakBisim(t, "a1; exit", "a1; exit", true)
	wantWeakBisim(t, "a1; exit", "b1; exit", false)
	wantWeakBisim(t, "a1; exit", "a1; stop", false)
	wantWeakBisim(t, "a1; b2; exit", "a1; exit", false)
}

func TestWeakBisimAbsorbsInternal(t *testing.T) {
	// a; i; B = a; B (law I1).
	wantWeakBisim(t, "a1; i; b2; exit", "a1; b2; exit", true)
	// i; B ≈ B weakly (but not congruent, see below).
	wantWeakBisim(t, "i; a1; exit", "a1; exit", true)
	// exit >> B inserts an i: weakly equal to i;B and to B.
	wantWeakBisim(t, "exit >> b2; exit", "b2; exit", true)
}

func TestWeakBisimDistinguishesInternalChoice(t *testing.T) {
	// a;B [] i;C is NOT equivalent to a;B [] C: the internal move commits.
	wantWeakBisim(t, "a1; exit [] i; b1; exit", "a1; exit [] b1; exit", false)
	// Internal choice vs external choice.
	wantWeakBisim(t, "i; a1; exit [] i; b1; exit", "a1; exit [] b1; exit", false)
}

func TestObservationCongruenceRootCondition(t *testing.T) {
	// i; B ≈ B but NOT congruent (the classic root-condition example).
	wantCongruent(t, "i; a1; exit", "a1; exit", false)
	wantCongruent(t, "i; a1; exit", "i; a1; exit", true)
	// B [] i;B = i;B (law I2) holds as a congruence.
	wantCongruent(t, "a1; exit [] i; a1; exit", "i; a1; exit", true)
	// a; i; B = a; B (law I1) as congruence.
	wantCongruent(t, "a1; i; b2; exit", "a1; b2; exit", true)
}

func TestStrongBisimBasics(t *testing.T) {
	check := func(a, b string, want bool) {
		t.Helper()
		if got := StrongBisimilar(graphOf(t, a), graphOf(t, b)); got != want {
			t.Errorf("StrongBisimilar(%q, %q) = %v, want %v", a, b, got, want)
		}
	}
	// Choice laws C1-C3 hold strongly.
	check("a1; exit [] b2; exit", "b2; exit [] a1; exit", true)
	check("a1; exit [] (b2; exit [] c3; exit)", "(a1; exit [] b2; exit) [] c3; exit", true)
	check("a1; exit [] a1; exit", "a1; exit", true)
	// i is NOT absorbed strongly.
	check("a1; i; b2; exit", "a1; b2; exit", false)
}

func TestWeakTraceEquivalent(t *testing.T) {
	g1 := graphOf(t, "a1; exit [] b1; exit")
	g2 := graphOf(t, "i; a1; exit [] i; b1; exit")
	if !WeakTraceEquivalent(g1, g2, 5) {
		t.Error("trace-equivalent expressions reported different")
	}
	g3 := graphOf(t, "a1; c2; exit")
	if WeakTraceEquivalent(g1, g3, 5) {
		t.Error("different traces reported equivalent")
	}
}

func TestTraceDiff(t *testing.T) {
	g1 := graphOf(t, "a1; b2; exit")
	g2 := graphOf(t, "a1; c3; exit")
	only1, only2 := TraceDiff(g1, g2, 5, 10)
	if len(only1) == 0 || len(only2) == 0 {
		t.Fatalf("diff empty: %v %v", only1, only2)
	}
	same1, same2 := TraceDiff(g1, g1, 5, 10)
	if len(same1) != 0 || len(same2) != 0 {
		t.Fatal("self diff must be empty")
	}
}

func TestParallelLawsWeak(t *testing.T) {
	// P1: commutativity of ||| (weak bisimulation).
	wantWeakBisim(t, "a1; exit ||| b2; exit", "b2; exit ||| a1; exit", true)
	// P2: associativity of |||.
	wantWeakBisim(t,
		"a1; exit ||| (b2; exit ||| c3; exit)",
		"(a1; exit ||| b2; exit) ||| c3; exit", true)
	// P5: B1 |[]| B2 = B1 ||| B2 — the parser maps both to interleaving;
	// check interleaving against full synchronization on disjoint alphabets.
	wantWeakBisim(t, "a1; exit |[c3]| b2; exit", "a1; exit ||| b2; exit", true)
}

func TestEnableDisableLaws(t *testing.T) {
	// E1: exit >> B = i; B (congruence).
	wantCongruent(t, "exit >> b2; exit", "i; b2; exit", true)
	// E2: (B1 >> B2) >> B3 = B1 >> (B2 >> B3).
	wantCongruent(t,
		"(a1; exit >> b2; exit) >> c3; exit",
		"a1; exit >> (b2; exit >> c3; exit)", true)
	// D1: B1 [> (B2 [> B3) = (B1 [> B2) [> B3.
	wantCongruent(t,
		"a1; exit [> (b2; exit [> c3; exit)",
		"(a1; exit [> b2; exit) [> c3; exit", true)
	// D2: (B1 [> B2) [] B2 = B1 [> B2.
	wantCongruent(t,
		"(a1; exit [> b2; exit) [] b2; exit",
		"a1; exit [> b2; exit", true)
	// D3: exit [> B = exit [] B.
	wantCongruent(t, "exit [> b2; exit", "exit [] b2; exit", true)
}

func TestInternalLaws(t *testing.T) {
	// I3: a;(B1 [] i;B2) [] a;B2 = a;(B1 [] i;B2).
	wantCongruent(t,
		"a1; (b1; exit [] i; c1; exit) [] a1; c1; exit",
		"a1; (b1; exit [] i; c1; exit)", true)
}

func TestHideLaws(t *testing.T) {
	// H5: hide a in (a; B) = i; hide a in B.
	wantCongruent(t,
		"hide a1 in (a1; b2; exit)",
		"i; hide a1 in (b2; exit)", true)
	// H4: hide list in B = B when the list does not intersect L(B).
	wantCongruent(t, "hide c3 in (a1; b2; exit)", "a1; b2; exit", true)
	// H6 over choice.
	wantCongruent(t,
		"hide a1 in (a1; exit [] b2; a1; exit)",
		"hide a1 in (a1; exit) [] b2; hide a1 in (a1; exit)", true)
}

func TestWeakBisimDeltaObservable(t *testing.T) {
	// exit and stop differ: δ is observable.
	wantWeakBisim(t, "exit", "stop", false)
	// exit [> B is NOT exit (D3 shows it equals exit [] B).
	wantWeakBisim(t, "exit [> b2; exit", "exit", false)
}
