package lts

import "slices"

// PathStep is one edge on a concrete path through a Graph: the source state
// and the edge taken from it. A path is a sequence of steps whose targets
// chain (step[k].Edge.To == step[k+1].From).
type PathStep struct {
	From int
	Edge Edge
}

// ShortestPathTo returns a shortest transition path (fewest edges) from the
// initial state 0 to the nearest state satisfying target, found by a
// parent-pointer breadth-first search over the explored edges. The second
// result is false when no target state is reachable. An empty (non-nil)
// path with ok=true means the initial state itself is a target.
//
// Minimality is exact on the explored graph: BFS discovers every state at
// its minimal edge distance, so no strictly shorter path to any target
// exists among the explored transitions.
func (g *Graph) ShortestPathTo(target func(state int) bool) ([]PathStep, bool) {
	n := g.NumStates()
	if n == 0 {
		return nil, false
	}
	if target(0) {
		return []PathStep{}, true
	}
	// Parent pointers: the state we came from and the edge index taken.
	parent := make([]int32, n)
	parentEdge := make([]int32, n)
	for i := range parent {
		parent[i] = -1
	}
	queue := make([]int32, 0, 64)
	queue = append(queue, 0)
	parent[0] = 0 // root marks itself visited
	for len(queue) > 0 {
		head := queue[0]
		queue = queue[1:]
		for ei, e := range g.Edges[head] {
			if parent[e.To] >= 0 || e.To == 0 {
				continue
			}
			parent[e.To] = head
			parentEdge[e.To] = int32(ei)
			if target(int(e.To)) {
				return g.unwind(parent, parentEdge, int(e.To)), true
			}
			queue = append(queue, e.To)
		}
	}
	return nil, false
}

// unwind follows the parent pointers back from state to the root and returns
// the forward path.
func (g *Graph) unwind(parent, parentEdge []int32, state int) []PathStep {
	var rev []PathStep
	for state != 0 {
		p := int(parent[state])
		rev = append(rev, PathStep{From: p, Edge: g.Edges[p][parentEdge[state]]})
		state = p
	}
	slices.Reverse(rev)
	return rev
}

// ObservableTrace projects a path through g onto its observable labels,
// rendered as by Label.String (internal steps are skipped; δ appears as
// "delta").
func (g *Graph) ObservableTrace(path []PathStep) []string {
	var out []string
	for _, st := range path {
		if st.Edge.Label != InternalID {
			out = append(out, g.Alphabet[st.Edge.Label].String())
		}
	}
	return out
}
