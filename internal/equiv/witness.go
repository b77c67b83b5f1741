package equiv

import (
	"strconv"

	"repro/internal/lts"
)

// This file finds concrete counterexample paths for failed trace-equivalence
// checks: where TraceDiff reports *which* weak traces separate two graphs,
// DivergentPath reports *how to get there* — the shortest transition path
// (entity moves included, internal steps and all) that exhibits a trace one
// side has and the other does not. The searches run a determinized subset
// construction of the reference graph alongside a parent-pointer BFS of the
// subject graph, so the returned path is minimal in transition count over
// the explored state space.

// witnessNode is one node of the subset-product BFS: a subject state paired
// with the set of reference states reachable by the same weak trace.
type witnessNode struct {
	state  int    // subject graph state
	refKey string // canonical key of the τ-closed reference state set
	refSet []int
	obs    int // observable steps taken so far
	parent int // index of the parent node (-1 for the root)
	edge   lts.Edge
}

// DivergentPath returns a shortest transition path (by edge count) in the
// subject graph whose weak observable trace is NOT a weak trace of the
// reference graph. The final edge of the path is the divergent observable:
// its trace prefix is a reference trace, the full trace is not.
//
// maxObs bounds the number of observable steps considered (0 = unbounded —
// sound only when both graphs are explored to closure). Divergence is never
// reported through an unexpanded frontier state of the reference graph,
// whose successors are unknown; such branches are conservatively treated as
// matching.
//
// The second result is false when no divergent path exists within the bound.
func DivergentPath(subject, reference *lts.Graph, maxObs int) ([]lts.PathStep, bool) {
	if subject.NumStates() == 0 || reference.NumStates() == 0 {
		return nil, false
	}
	refClosure := lts.EpsilonClosures(reference)

	rootSet := refClosure[0]
	nodes := []witnessNode{{state: 0, refKey: lts.IntsKey(rootSet), refSet: rootSet, obs: 0, parent: -1}}
	visited := map[string]bool{nodeKey(0, lts.IntsKey(rootSet), 0, maxObs): true}

	for head := 0; head < len(nodes); head++ {
		cur := nodes[head]
		for _, e := range subject.Edges[cur.state] {
			if !e.Label.Observable() {
				// Internal subject move: the reference set is unchanged.
				push(&nodes, visited, witnessNode{
					state: e.To, refKey: cur.refKey, refSet: cur.refSet,
					obs: cur.obs, parent: head, edge: e,
				}, maxObs)
				continue
			}
			if maxObs > 0 && cur.obs >= maxObs {
				continue // beyond the sound comparison bound
			}
			// Determinized reference step: all weak successors of the set
			// under the same observable label.
			next, frontier := weakStep(reference, refClosure, cur.refSet, e.Label.Key())
			if len(next) == 0 {
				if frontier {
					continue // unknown successors: cannot judge soundly
				}
				// Divergence: the reference cannot match this observable.
				return unwindNodes(nodes, head, e), true
			}
			push(&nodes, visited, witnessNode{
				state: e.To, refKey: lts.IntsKey(next), refSet: next,
				obs: cur.obs + 1, parent: head, edge: e,
			}, maxObs)
		}
	}
	return nil, false
}

// TracePrefixPath returns a shortest subject-graph path realizing the
// longest realizable prefix of the given observable trace (labels rendered
// as by Label.String). The second result is the number of trace labels the
// path realizes. For a trace the subject cannot perform in full, the path
// leads to a state after which the next label is not weakly reachable
// anywhere in the explored graph (the BFS exhausts every state reaching the
// maximal prefix before giving up on extending it).
func TracePrefixPath(subject *lts.Graph, trace []string) ([]lts.PathStep, int) {
	if subject.NumStates() == 0 {
		return nil, 0
	}
	type node struct {
		state  int
		pos    int
		parent int
		edge   lts.Edge
	}
	nodes := []node{{state: 0, pos: 0, parent: -1}}
	visited := map[[2]int]bool{{0, 0}: true}
	best := 0
	bestAt := 0
	for head := 0; head < len(nodes); head++ {
		cur := nodes[head]
		if cur.pos > best {
			best, bestAt = cur.pos, head
			if best == len(trace) {
				break
			}
		}
		for _, e := range subject.Edges[cur.state] {
			pos := cur.pos
			if e.Label.Observable() {
				if pos >= len(trace) || e.Label.String() != trace[pos] {
					continue
				}
				pos++
			}
			if visited[[2]int{e.To, pos}] {
				continue
			}
			visited[[2]int{e.To, pos}] = true
			nodes = append(nodes, node{state: e.To, pos: pos, parent: head, edge: e})
		}
	}
	var rev []lts.PathStep
	for at := bestAt; nodes[at].parent >= 0; at = nodes[at].parent {
		rev = append(rev, lts.PathStep{From: nodes[nodes[at].parent].state, Edge: nodes[at].edge})
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, best
}

// ShortestDivergentTrace returns the observable projection of
// DivergentPath(subject, reference): the shortest-path divergent weak trace,
// rendered label by label.
func ShortestDivergentTrace(subject, reference *lts.Graph, maxObs int) ([]string, bool) {
	path, ok := DivergentPath(subject, reference, maxObs)
	if !ok {
		return nil, false
	}
	return lts.ObservableTrace(path), true
}

// weakStep computes the τ-closed set of reference states reachable from any
// state in set by one observable transition with the given label key. The
// second result reports that some member of the set is an unexpanded
// frontier state (its successors are unknown, so an empty result is not
// conclusive).
func weakStep(g *lts.Graph, closure [][]int, set []int, labelKey string) ([]int, bool) {
	var out []int
	frontier := false
	for _, s := range set {
		if g.Frontier[s] {
			frontier = true
		}
		for _, e := range g.Edges[s] {
			if e.Label.Observable() && e.Label.Key() == labelKey {
				out = append(out, closure[e.To]...)
			}
		}
	}
	return dedup(out), frontier
}

// push appends a product node unless its (state, refSet, obs) signature was
// already visited.
func push(nodes *[]witnessNode, visited map[string]bool, n witnessNode, maxObs int) {
	k := nodeKey(n.state, n.refKey, n.obs, maxObs)
	if visited[k] {
		return
	}
	visited[k] = true
	*nodes = append(*nodes, n)
}

// nodeKey builds the visited signature. The observable count participates
// only under a bound: with maxObs = 0 the judgement of a node is independent
// of how many observables led to it, and folding obs into the key would
// blow the search up for cyclic graphs.
func nodeKey(state int, refKey string, obs, maxObs int) string {
	if maxObs <= 0 {
		obs = 0
	}
	return strconv.Itoa(state) + "\x00" + refKey + "\x00" + strconv.Itoa(obs)
}

// unwindNodes reconstructs the path to nodes[head] and appends the final
// divergent edge.
func unwindNodes(nodes []witnessNode, head int, last lts.Edge) []lts.PathStep {
	var rev []lts.PathStep
	rev = append(rev, lts.PathStep{From: nodes[head].state, Edge: last})
	for at := head; nodes[at].parent >= 0; at = nodes[at].parent {
		rev = append(rev, lts.PathStep{From: nodes[nodes[at].parent].state, Edge: nodes[at].edge})
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
