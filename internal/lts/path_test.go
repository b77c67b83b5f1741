package lts

import (
	"testing"

	"repro/internal/lotos"
)

// testEdge is an edge of a hand-built graph, by label.
type testEdge struct {
	Label Label
	To    int
}

// pathGraph builds a bare graph with n states and the given edges (the
// expression/key/depth columns are irrelevant to path search).
func pathGraph(n int, edges map[int][]testEdge) *Graph {
	g := &Graph{
		States: make([]lotos.Expr, n),
		Keys:   make([]string, n),
		Edges:  make([][]Edge, n),
	}
	for s := range n {
		for _, e := range edges[s] {
			g.AddEdge(s, e.Label, e.To)
		}
	}
	return g
}

func ev(name string) Label { return EventLabel(lotos.ServiceEvent(name, 1)) }

func TestShortestPathToChain(t *testing.T) {
	// 0 -a-> 1 -i-> 2 -b-> 3
	g := pathGraph(4, map[int][]testEdge{
		0: {{Label: ev("a"), To: 1}},
		1: {{Label: Internal(), To: 2}},
		2: {{Label: ev("b"), To: 3}},
	})
	path, ok := g.ShortestPathTo(func(s int) bool { return s == 3 })
	if !ok || len(path) != 3 {
		t.Fatalf("path = %v ok = %v, want 3 steps", path, ok)
	}
	// The steps chain: each target is the next step's source.
	for i := 0; i+1 < len(path); i++ {
		if int(path[i].Edge.To) != path[i+1].From {
			t.Fatalf("path does not chain at step %d: %v", i, path)
		}
	}
	if path[0].From != 0 || path[len(path)-1].Edge.To != 3 {
		t.Errorf("path endpoints wrong: %v", path)
	}
	// The observable projection skips the internal step.
	trace := g.ObservableTrace(path)
	want := []string{ev("a").String(), ev("b").String()}
	if len(trace) != 2 || trace[0] != want[0] || trace[1] != want[1] {
		t.Errorf("trace = %v, want %v", trace, want)
	}
}

func TestShortestPathToPrefersShorterRoute(t *testing.T) {
	// Two routes to 3: 0->1->2->3 (three edges) and 0->4->3 (two edges).
	g := pathGraph(5, map[int][]testEdge{
		0: {{Label: ev("a"), To: 1}, {Label: ev("x"), To: 4}},
		1: {{Label: ev("b"), To: 2}},
		2: {{Label: ev("c"), To: 3}},
		4: {{Label: ev("y"), To: 3}},
	})
	path, ok := g.ShortestPathTo(func(s int) bool { return s == 3 })
	if !ok || len(path) != 2 {
		t.Fatalf("path = %v ok = %v, want the 2-step route", path, ok)
	}
	if path[0].Edge.To != 4 {
		t.Errorf("took the long route: %v", path)
	}
}

func TestShortestPathToRootAndUnreachable(t *testing.T) {
	g := pathGraph(3, map[int][]testEdge{0: {{Label: ev("a"), To: 1}}})
	// The root itself is a target: empty non-nil path.
	path, ok := g.ShortestPathTo(func(s int) bool { return s == 0 })
	if !ok || path == nil || len(path) != 0 {
		t.Errorf("root target: path = %v ok = %v", path, ok)
	}
	// State 2 has no incoming edges.
	if _, ok := g.ShortestPathTo(func(s int) bool { return s == 2 }); ok {
		t.Error("found a path to an unreachable state")
	}
	// No path in an empty graph.
	empty := pathGraph(0, nil)
	if _, ok := empty.ShortestPathTo(func(int) bool { return true }); ok {
		t.Error("found a path in an empty graph")
	}
}

func TestShortestPathToHandlesCycles(t *testing.T) {
	// A cycle 0->1->0 with an exit 1->2: BFS must terminate and find it.
	g := pathGraph(3, map[int][]testEdge{
		0: {{Label: ev("a"), To: 1}},
		1: {{Label: ev("b"), To: 0}, {Label: ev("c"), To: 2}},
	})
	path, ok := g.ShortestPathTo(func(s int) bool { return s == 2 })
	if !ok || len(path) != 2 {
		t.Fatalf("path = %v ok = %v, want 2 steps through the cycle", path, ok)
	}
}

func TestObservableTraceRendersDelta(t *testing.T) {
	g := pathGraph(3, map[int][]testEdge{
		0: {{Label: Internal(), To: 1}},
		1: {{Label: Delta(), To: 2}},
	})
	path, ok := g.ShortestPathTo(func(s int) bool { return s == 2 })
	if !ok {
		t.Fatal("no path")
	}
	trace := g.ObservableTrace(path)
	if len(trace) != 1 || trace[0] != "delta" {
		t.Errorf("trace = %v, want [delta]", trace)
	}
}
