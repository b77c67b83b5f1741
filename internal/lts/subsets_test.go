package lts

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/lotos"
)

// TestSubsetsInternAndMemo: equal τ-closed sets reached along different
// traces are one determinized state, labels come out in name order, and a
// missing step is -1.
func TestSubsetsInternAndMemo(t *testing.T) {
	g := mustGraph(t, "SPEC (a1; i; c3; exit) [] (b2; c3; exit) ENDSPEC", Limits{})
	w := NewSubsets(g)
	root := w.Root()
	var names []string
	for _, m := range w.Moves(root) {
		names = append(names, m.Label)
	}
	if !reflect.DeepEqual(names, []string{"a1", "b2"}) {
		t.Fatalf("root labels %q, want [a1 b2]", names)
	}
	afterA := w.Step(root, "a1")
	afterB := w.Step(root, "b2")
	if afterA < 0 || afterB < 0 {
		t.Fatal("missing step")
	}
	c3 := "c3"
	if w.Step(afterA, c3) != w.Step(afterB, c3) {
		t.Error("the sets after a1 c3 and b2 c3 are both {exit} but were interned apart")
	}
	if w.Step(afterA, c3) != w.Step(afterA, c3) {
		t.Error("memoized step changed")
	}
	if w.Step(root, c3) != -1 || w.Step(root, "z9") != -1 {
		t.Error("step on an unavailable label must be -1")
	}
}

// TestCheckServiceTraceRejection: a conclusive rejection records the first
// refused event and the sorted labels the service allowed there; a capped
// walk records neither.
func TestCheckServiceTraceRejection(t *testing.T) {
	sp := lotos.MustParse("SPEC a1; (c2; exit [] b2; exit) ENDSPEC")
	lotos.Number(sp)
	st, err := CheckServiceTrace(sp, []string{"a1", "d2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Accepted || st.Capped || st.Rejected != 1 || !reflect.DeepEqual(st.Allowed, []string{"b2", "c2"}) {
		t.Fatalf("got %+v, want rejection of event 1 with [b2 c2] allowed", st)
	}
	st, err = CheckServiceTrace(sp, []string{"a1", "b2", "c2"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Accepted || !st.Capped || st.Allowed != nil {
		t.Fatalf("capped walk: got %+v, want an unexplained capped rejection", st)
	}
}

// simLoops are the generated looping services of the sim-check benchmark
// workload.
var simLoops = []string{
	"SPEC A WHERE PROC A = a1; b2; c3; A END ENDSPEC",
	"SPEC A ||| B WHERE PROC A = a1; b2; A END PROC B = c3; d4; B END ENDSPEC",
	"SPEC A WHERE PROC A = (a1; b2; A) [] (c1; d3; A) END ENDSPEC",
}

// TestCheckServiceTraceLazyMatchesEager replays sampled service traces and
// one-label mutations of them through the lazy walk and through a walk over
// the service explored eagerly to observable depth len+2 with per-state
// τ-closures. Wherever the state cap did not cut the eager graph within that
// depth, the two must agree on acceptance, termination, the rejected event
// and the labels allowed there — and the lazy walk must not report a cap.
func TestCheckServiceTraceLazyMatchesEager(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.spec"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus specs: %v", err)
	}
	srcs := slices.Clone(simLoops)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, string(b))
	}
	r := rand.New(rand.NewSource(1))
	compared := 0
	for _, src := range srcs {
		sp := lotos.MustParse(src)
		lotos.Number(sp)
		sample, err := ExploreSpec(sp, Limits{MaxObsDepth: 9})
		if err != nil {
			t.Fatal(err)
		}
		alphabet := map[string]bool{}
		for _, es := range sample.Edges {
			for _, e := range es {
				if e.Label != InternalID {
					alphabet[sample.Alphabet[e.Label].String()] = true
				}
			}
		}
		letters := make([]string, 0, len(alphabet))
		for l := range alphabet {
			letters = append(letters, l)
		}
		sort.Strings(letters)
		for i := 0; i < 6; i++ {
			tr := randomTrace(r, sample, r.Intn(9))
			traces := [][]string{tr}
			for m := 0; m < 2 && len(tr) > 0; m++ {
				mut := slices.Clone(tr)
				mut[r.Intn(len(mut))] = letters[r.Intn(len(letters))]
				traces = append(traces, mut)
			}
			for _, tr := range traces {
				if eagerMatches(t, sp, tr) {
					compared++
				}
			}
		}
	}
	if compared < 60 {
		t.Fatalf("only %d traces were decided by the eager walk", compared)
	}
}

// randomTrace follows random edges of g from the initial state, collecting
// up to n observable labels.
func randomTrace(r *rand.Rand, g *Graph, n int) []string {
	var tr []string
	for s := 0; len(tr) < n && len(g.Edges[s]) > 0; {
		e := g.Edges[s][r.Intn(len(g.Edges[s]))]
		if e.Label != InternalID {
			tr = append(tr, g.Alphabet[e.Label].String())
		}
		s = int(e.To)
	}
	return tr
}

// eagerMatches compares the lazy check of one trace with the eager one and
// reports whether the eager graph decided it.
func eagerMatches(t *testing.T, sp *lotos.Spec, labels []string) bool {
	t.Helper()
	lim := Limits{MaxObsDepth: len(labels) + 2}
	g, err := ExploreSpec(sp, lim)
	if err != nil {
		t.Fatal(err)
	}
	for s := range g.Frontier {
		if g.ObsDepth[s] < lim.MaxObsDepth {
			return false // the state cap cut the eager graph
		}
	}
	closure := make([][]int, g.NumStates())
	for s := range closure {
		seen := map[int]bool{s: true}
		for stack := []int{s}; len(stack) > 0; {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range g.Edges[cur] {
				if to := int(e.To); e.Label == InternalID && !seen[to] {
					seen[to] = true
					stack = append(stack, to)
				}
			}
		}
		for st := range seen {
			closure[s] = append(closure[s], st)
		}
	}
	offered := func(set map[int]bool) map[string][]int {
		out := map[string][]int{}
		for s := range set {
			for _, e := range g.Edges[s] {
				if l := g.Alphabet[e.Label]; l.Observable() {
					out[l.String()] = append(out[l.String()], closure[e.To]...)
				}
			}
		}
		return out
	}
	var want ServiceTrace
	cur := map[int]bool{}
	for _, s := range closure[0] {
		cur[s] = true
	}
	want.Accepted = true
	for i, l := range labels {
		moves := offered(cur)
		next, ok := moves[l]
		if !ok {
			want.Accepted, want.Rejected = false, i
			for m := range moves {
				want.Allowed = append(want.Allowed, m)
			}
			sort.Strings(want.Allowed)
			break
		}
		cur = map[int]bool{}
		for _, s := range next {
			cur[s] = true
		}
	}
	if want.Accepted {
		_, want.CanTerminate = offered(cur)["delta"]
	}

	got, err := CheckServiceTrace(sp, labels, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("trace %q: lazy %+v, eager %+v", labels, got, want)
	}
	return true
}
