package equiv

import (
	"testing"

	"repro/internal/lotos"
	"repro/internal/lts"
)

func TestDedupDoesNotMutateInput(t *testing.T) {
	in := []int{5, 3, 3, 1, 5}
	snapshot := append([]int(nil), in...)
	out := dedup(in)
	for i := range in {
		if in[i] != snapshot[i] {
			t.Fatalf("dedup mutated its input: %v (was %v)", in, snapshot)
		}
	}
	want := []int{1, 3, 5}
	if len(out) != len(want) {
		t.Fatalf("dedup = %v, want %v", out, want)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("dedup = %v, want %v", out, want)
		}
	}
}

func TestDedupSharedClosureAliasing(t *testing.T) {
	// Two views into one backing array, as shared ε-closure slices are: the
	// dedup of one view must not reorder or compact through the other.
	backing := []int{9, 2, 7, 2, 4}
	a := backing[:3]
	b := backing[2:]
	_ = dedup(a)
	if b[0] != 7 || b[1] != 2 || b[2] != 4 {
		t.Fatalf("dedup of an aliased view corrupted the other view: %v", backing)
	}
}

// TestQuotientEmptyKeyState regresses the "unassigned" sentinel: a state
// whose canonical key is legitimately empty must still be adopted as its
// class representative (the old q.Keys[from] == "" check made every later
// state of the class overwrite it).
func TestQuotientEmptyKeyState(t *testing.T) {
	// Hand-built two-state graph: 0 --a--> 1, both keys empty, distinct
	// classes (state 1 is terminal).
	ev := lotos.ServiceEvent("a", 1)
	g := &lts.Graph{
		States:   make([]lotos.Expr, 2),
		Keys:     []string{"", ""},
		Edges:    make([][]lts.Edge, 2),
		ObsDepth: []int{0, 1},
		Frontier: map[int]bool{},
	}
	g.AddEdge(0, lts.EventLabel(ev), 1)
	q := QuotientWeak(g)
	if q.NumStates() != 2 {
		t.Fatalf("quotient states = %d, want 2", q.NumStates())
	}
	if q.Keys[0] != "" || q.Keys[1] != "" {
		t.Fatalf("quotient keys = %q", q.Keys)
	}
	if len(q.Edges[0]) != 1 || q.Edges[0][0].To != 1 {
		t.Fatalf("quotient edges = %v", q.Edges)
	}
	if !WeakBisimilar(g, q) {
		t.Fatal("quotient not bisimilar to original")
	}
}

func TestTauCycleCollapsesToOneClass(t *testing.T) {
	// A hand-built three-state τ-cycle (recursive specs explore to fresh
	// occurrence numbers, so cycles only arise through key canonicalization
	// — e.g. in composed product graphs). Every state shares one τ-SCC and
	// one class, and the cycle is weakly bisimilar to stop (no observable
	// behaviour, no termination).
	tau := lts.InternalID
	g := &lts.Graph{
		States: make([]lotos.Expr, 3),
		Keys:   []string{"s0", "s1", "s2"},
		Edges: [][]lts.Edge{
			{{Label: tau, To: 1}},
			{{Label: tau, To: 2}},
			{{Label: tau, To: 0}},
		},
		Alphabet: []lts.Label{lts.Internal(), lts.Delta()},
		ObsDepth: []int{0, 0, 0},
		Frontier: map[int]bool{},
	}
	if n := NumClassesWeak(g); n != 1 {
		t.Fatalf("τ-cycle classes = %d, want 1", n)
	}
	if !WeakBisimilar(g, graphOf(t, "stop")) {
		t.Fatal("τ-divergent loop not weakly bisimilar to stop")
	}
	if RefNumClassesWeak(g) != 1 {
		t.Fatal("reference disagrees on the τ-cycle")
	}
}

func TestWeakBisimilarStatsCounters(t *testing.T) {
	g1 := graphOf(t, "a1; i; b2; exit")
	g2 := graphOf(t, "a1; b2; exit")
	ok, st := WeakBisimilarStats(g1, g2)
	if !ok {
		t.Fatal("expected weakly bisimilar")
	}
	if st.States != g1.NumStates()+g2.NumStates() {
		t.Errorf("stats states = %d, want %d", st.States, g1.NumStates()+g2.NumStates())
	}
	if st.TauSCCs <= 0 || st.TauSCCs > st.States {
		t.Errorf("stats τ-SCCs = %d out of range", st.TauSCCs)
	}
	if st.SaturationEdges < st.TauSCCs {
		t.Errorf("stats saturation edges = %d < SCC count %d (ε rows missing)", st.SaturationEdges, st.TauSCCs)
	}
	if st.RefinementRounds < 1 {
		t.Errorf("stats rounds = %d", st.RefinementRounds)
	}
	if st.Blocks < 1 || st.Blocks > st.TauSCCs {
		t.Errorf("stats blocks = %d out of range", st.Blocks)
	}
	if st.SaturateNanos < 0 || st.RefineNanos < 0 {
		t.Errorf("negative phase times: %+v", st)
	}
}

// TestRefineParallelMatchesSerial forces both code paths of the per-round
// signature computation over the same relation and checks identical
// partitions (the parallel path must be deterministic).
func TestRefineParallelMatchesSerial(t *testing.T) {
	// A chain of 2*refineParallelMin states with alternating labels: big
	// enough to cross the parallel threshold, fully distinguishable, so the
	// refinement runs many rounds.
	n := 2 * refineParallelMin
	off := make([]int, n+1)
	pairs := make([]uint64, 0, n)
	for s := 0; s < n; s++ {
		if s+1 < n {
			pairs = append(pairs, packPair(lts.LabelID(s%3), int32(s+1)))
		}
		off[s+1] = len(pairs)
	}
	serialBlock, serialBlocks, serialRounds := refinePacked(n, off, pairs, 1)
	parBlock, parBlocks, parRounds := refinePacked(n, off, pairs, 8)
	if serialBlocks != parBlocks || serialRounds != parRounds {
		t.Fatalf("serial (%d blocks, %d rounds) != parallel (%d blocks, %d rounds)",
			serialBlocks, serialRounds, parBlocks, parRounds)
	}
	for i := range serialBlock {
		if serialBlock[i] != parBlock[i] {
			t.Fatalf("block[%d]: serial %d != parallel %d", i, serialBlock[i], parBlock[i])
		}
	}
	if serialBlocks != n {
		t.Fatalf("chain of %d distinguishable states refined to %d blocks", n, serialBlocks)
	}
}

func TestLabelTableInterning(t *testing.T) {
	tab := lts.NewLabelTable()
	a := tab.Intern(lts.EventLabel(lotos.ServiceEvent("a", 1)))
	b := tab.Intern(lts.EventLabel(lotos.ServiceEvent("b", 2)))
	i1 := tab.Intern(lts.Internal())
	d := tab.Intern(lts.Delta())
	if a == b || a == i1 || b == d || i1 == d {
		t.Fatalf("distinct labels share ids: a=%d b=%d i=%d d=%d", a, b, i1, d)
	}
	if got := tab.Intern(lts.EventLabel(lotos.ServiceEvent("a", 1))); got != a {
		t.Fatalf("re-interning a1 gave %d, want %d", got, a)
	}
	if tab.Intern(lts.Internal()) != i1 || tab.Intern(lts.Delta()) != d ||
		tab.InternKey(lts.Internal().Key()) != i1 || tab.InternKey(lts.Delta().Key()) != d {
		t.Fatal("re-interning i or delta, by label or by key, gave a new id")
	}
	if !tab.Observable(a) || !tab.Observable(d) || tab.Observable(i1) {
		t.Fatal("observability lost through interning")
	}
	if tab.Len() != 4 {
		t.Fatalf("table len = %d, want 4", tab.Len())
	}

	// A tagged message's key ignores Node and Occ: distinct label values
	// share one id, and the first value seen stays its representative.
	first := lts.EventLabel(lotos.Event{Kind: lotos.EvSend, Place: 2, Node: -1, Tag: "x"})
	other := lts.EventLabel(lotos.Event{Kind: lotos.EvSend, Place: 2, Node: 7, Tag: "x", Occ: lotos.OccSymbolic})
	if first == other || first.Key() != other.Key() {
		t.Fatalf("test labels %v and %v must differ as values and share a key", first, other)
	}
	x := tab.Intern(first)
	for _, l := range []lts.Label{other, first, other} {
		if got := tab.Intern(l); got != x {
			t.Fatalf("interning %+v gave %d, want %d", l, got, x)
		}
	}
	if tab.Label(x) != first {
		t.Fatalf("representative = %+v, want the first seen %+v", tab.Label(x), first)
	}
	if tab.Len() != 5 {
		t.Fatalf("table len = %d, want 5", tab.Len())
	}
	if got := tab.InternKey(first.Key()); got != x {
		t.Fatalf("InternKey of the shared key gave %d, want %d", got, x)
	}
}

// TestTauLaw3SurvivesBranchingPrePass pins the pre-pass below the verdict:
// Milner's third τ-law pair is weakly bisimilar and observation congruent,
// yet branching bisimilarity (the pre-pass's partition) tells its roots
// apart. The weak passes must still merge what the pre-pass kept apart.
func TestTauLaw3SurvivesBranchingPrePass(t *testing.T) {
	g1 := graphOf(t, "a1; (b1; stop [] i; c1; stop) [] a1; c1; stop")
	g2 := graphOf(t, "a1; (b1; stop [] i; c1; stop)")
	if !WeakBisimilar(g1, g2) {
		t.Error("τ-law 3 pair not weakly bisimilar")
	}
	if !ObservationCongruent(g1, g2) {
		t.Error("τ-law 3 pair not observation congruent")
	}

	table := lts.NewLabelTable()
	off, labs, to, isTau := combinedCSR(table, table.InternKey(epsKey), g1, g2)
	scc, sccs := tarjanTau(len(off)-1, off, labs, to, isTau)
	nodeOf, _, _, _, _ := branchingQuotient(scc, sccs, off, labs, to, isTau)
	if nodeOf[scc[0]] == nodeOf[scc[g1.NumStates()]] {
		t.Error("branching pre-pass merged the τ-law 3 roots; the pair no longer tests it")
	}
}
