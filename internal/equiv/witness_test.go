package equiv

import (
	"testing"

	"repro/internal/lotos"
	"repro/internal/lts"
)

// wEdge is an edge of a hand-built graph, by label.
type wEdge struct {
	Label lts.Label
	To    int
}

// wGraph builds a bare graph with n states and the given edges.
func wGraph(n int, edges map[int][]wEdge) *lts.Graph {
	g := &lts.Graph{
		States: make([]lotos.Expr, n),
		Keys:   make([]string, n),
		Edges:  make([][]lts.Edge, n),
	}
	for s := range n {
		for _, e := range edges[s] {
			g.AddEdge(s, e.Label, e.To)
		}
	}
	return g
}

func wev(name string) lts.Label { return lts.EventLabel(lotos.ServiceEvent(name, 1)) }

// hasWeakTrace is a naive oracle: does g weakly perform the observable trace
// (labels rendered as by Label.String)? Subset simulation with τ-closure.
func hasWeakTrace(g *lts.Graph, trace []string) bool {
	set := map[int]bool{}
	var grow func(s int)
	grow = func(s int) {
		if set[s] {
			return
		}
		set[s] = true
		for _, e := range g.Edges[s] {
			if e.Label == lts.InternalID {
				grow(int(e.To))
			}
		}
	}
	grow(0)
	for _, lab := range trace {
		next := map[int]bool{}
		for s := range set {
			for _, e := range g.Edges[s] {
				if e.Label != lts.InternalID && g.Alphabet[e.Label].String() == lab {
					next[int(e.To)] = true
				}
			}
		}
		set = map[int]bool{}
		for s := range next {
			grow(s)
		}
		if len(set) == 0 {
			return false
		}
	}
	return true
}

// naiveShortestDivergent brute-forces the minimal edge count of a subject
// path whose observable trace the reference cannot weakly perform, up to the
// given path-length bound. Returns -1 when none exists within the bound.
func naiveShortestDivergent(subject, reference *lts.Graph, bound int) int {
	type node struct {
		state int
		trace []string
	}
	frontier := []node{{state: 0}}
	for depth := 1; depth <= bound; depth++ {
		var next []node
		for _, cur := range frontier {
			for _, e := range subject.Edges[cur.state] {
				tr := cur.trace
				if e.Label != lts.InternalID {
					tr = append(append([]string(nil), cur.trace...), subject.Alphabet[e.Label].String())
					if !hasWeakTrace(reference, tr) {
						return depth
					}
				}
				next = append(next, node{state: int(e.To), trace: tr})
			}
		}
		frontier = next
	}
	return -1
}

func TestDivergentPathFindsExtraObservable(t *testing.T) {
	// Subject: a then b. Reference: a only.
	subject := wGraph(3, map[int][]wEdge{
		0: {{Label: wev("a"), To: 1}},
		1: {{Label: wev("b"), To: 2}},
	})
	reference := wGraph(2, map[int][]wEdge{
		0: {{Label: wev("a"), To: 1}},
	})
	path, ok := DivergentPath(subject, reference, 0)
	if !ok {
		t.Fatal("no divergence found")
	}
	trace := subject.ObservableTrace(path)
	if len(trace) != 2 || trace[1] != wev("b").String() {
		t.Errorf("divergent trace = %v, want [... b1]", trace)
	}
	// The prefix without the final divergent observable is a reference trace.
	if !hasWeakTrace(reference, trace[:len(trace)-1]) {
		t.Errorf("divergent trace prefix %v is not a reference trace", trace[:len(trace)-1])
	}
	if hasWeakTrace(reference, trace) {
		t.Errorf("divergent trace %v is a reference trace after all", trace)
	}
}

func TestDivergentPathNoDivergenceOnEqualGraphs(t *testing.T) {
	mk := func() *lts.Graph {
		return wGraph(3, map[int][]wEdge{
			0: {{Label: wev("a"), To: 1}, {Label: lts.Internal(), To: 0}},
			1: {{Label: wev("b"), To: 2}},
		})
	}
	if _, ok := DivergentPath(mk(), mk(), 0); ok {
		t.Error("found divergence between identical graphs")
	}
	if _, ok := DivergentPath(mk(), mk(), 3); ok {
		t.Error("found bounded divergence between identical graphs")
	}
}

func TestDivergentPathSeesThroughTau(t *testing.T) {
	// The reference reaches its 'a' only after a τ step: weak matching must
	// credit it, so the only divergence is the subject's 'b'.
	subject := wGraph(3, map[int][]wEdge{
		0: {{Label: wev("a"), To: 1}, {Label: wev("b"), To: 2}},
	})
	reference := wGraph(3, map[int][]wEdge{
		0: {{Label: lts.Internal(), To: 1}},
		1: {{Label: wev("a"), To: 2}},
	})
	path, ok := DivergentPath(subject, reference, 0)
	if !ok {
		t.Fatal("no divergence found")
	}
	if tr := subject.ObservableTrace(path); len(tr) != 1 || tr[0] != wev("b").String() {
		t.Errorf("divergent trace = %v, want [b1]", tr)
	}
}

func TestDivergentPathConservativeOnFrontier(t *testing.T) {
	// The reference was truncated at state 1: its successors are unknown, so
	// the subject's a-then-b must NOT be reported divergent through it.
	subject := wGraph(3, map[int][]wEdge{
		0: {{Label: wev("a"), To: 1}},
		1: {{Label: wev("b"), To: 2}},
	})
	reference := wGraph(2, map[int][]wEdge{
		0: {{Label: wev("a"), To: 1}},
	})
	reference.Truncated = true
	reference.Frontier = map[int]bool{1: true}
	if path, ok := DivergentPath(subject, reference, 0); ok {
		t.Errorf("reported divergence %v through an unexpanded frontier state", subject.ObservableTrace(path))
	}
}

// TestDivergentPathMinimalityOracle cross-checks the subset-product BFS
// against a brute-force enumeration on graphs with τ steps, cycles and
// multiple divergences at different depths.
func TestDivergentPathMinimalityOracle(t *testing.T) {
	cases := []struct {
		name      string
		subject   *lts.Graph
		reference *lts.Graph
	}{
		{
			name: "deep and shallow divergence",
			// Divergences: c after a (depth 2) and b immediately (depth 1).
			subject: wGraph(4, map[int][]wEdge{
				0: {{Label: wev("a"), To: 1}, {Label: wev("b"), To: 3}},
				1: {{Label: wev("c"), To: 2}},
			}),
			reference: wGraph(2, map[int][]wEdge{
				0: {{Label: wev("a"), To: 1}},
			}),
		},
		{
			name: "tau detour lengthens the path",
			// The only divergent observable sits behind two internal steps.
			subject: wGraph(4, map[int][]wEdge{
				0: {{Label: lts.Internal(), To: 1}},
				1: {{Label: lts.Internal(), To: 2}},
				2: {{Label: wev("b"), To: 3}},
			}),
			reference: wGraph(2, map[int][]wEdge{
				0: {{Label: wev("a"), To: 1}},
			}),
		},
		{
			name: "cycle before divergence",
			subject: wGraph(3, map[int][]wEdge{
				0: {{Label: wev("a"), To: 0}, {Label: wev("b"), To: 1}},
				1: {{Label: wev("b"), To: 2}},
			}),
			// Reference loops on a and allows one b.
			reference: wGraph(2, map[int][]wEdge{
				0: {{Label: wev("a"), To: 0}, {Label: wev("b"), To: 1}},
			}),
		},
	}
	for _, c := range cases {
		path, ok := DivergentPath(c.subject, c.reference, 0)
		want := naiveShortestDivergent(c.subject, c.reference, 8)
		if !ok {
			if want != -1 {
				t.Errorf("%s: BFS found nothing, oracle found a divergence at depth %d", c.name, want)
			}
			continue
		}
		if want == -1 {
			t.Errorf("%s: BFS found %v, oracle found nothing", c.name, c.subject.ObservableTrace(path))
			continue
		}
		if len(path) != want {
			t.Errorf("%s: BFS path has %d edges, oracle minimum is %d", c.name, len(path), want)
		}
		// The found trace must genuinely diverge.
		tr := c.subject.ObservableTrace(path)
		if hasWeakTrace(c.reference, tr) {
			t.Errorf("%s: returned trace %v is a reference trace", c.name, tr)
		}
	}
}

func TestTracePrefixPathFullAndPartial(t *testing.T) {
	g := wGraph(4, map[int][]wEdge{
		0: {{Label: lts.Internal(), To: 1}},
		1: {{Label: wev("a"), To: 2}},
		2: {{Label: wev("b"), To: 3}},
	})
	a, b := wev("a").String(), wev("b").String()
	// Fully realizable trace.
	path, n := TracePrefixPath(g, []string{a, b})
	if n != 2 {
		t.Fatalf("realized %d of 2 labels", n)
	}
	if tr := g.ObservableTrace(path); len(tr) != 2 || tr[0] != a || tr[1] != b {
		t.Errorf("path trace = %v, want [%s %s]", tr, a, b)
	}
	// Only the first label is realizable.
	path, n = TracePrefixPath(g, []string{a, a})
	if n != 1 {
		t.Errorf("realized %d of [a a], want 1", n)
	}
	if tr := g.ObservableTrace(path); len(tr) != 1 || tr[0] != a {
		t.Errorf("partial path trace = %v, want [%s]", tr, a)
	}
	// Nothing realizable: empty path, zero labels.
	path, n = TracePrefixPath(g, []string{b})
	if n != 0 || len(path) != 0 {
		t.Errorf("unrealizable trace gave path %v n=%d", path, n)
	}
}
