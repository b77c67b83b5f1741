package equiv

import (
	"slices"

	"repro/internal/lts"
)

// This file finds concrete counterexample paths for failed trace-equivalence
// checks: where TraceDiff reports *which* weak traces separate two graphs,
// DivergentPath reports *how to get there* — the shortest transition path
// (entity moves included, internal steps and all) that exhibits a trace one
// side has and the other does not. The searches run the lazy subset
// construction of the reference graph (lts.Subsets) alongside a
// parent-pointer BFS of the subject graph, so the returned path is minimal
// in transition count over the explored state space.

// witnessKey identifies a node of the subset-product BFS: a subject state,
// the determinized set of reference states reachable by the same weak trace,
// and the observable steps taken so far. Observables are counted only under
// a bound: with maxObs = 0 the judgement of a node is independent of how
// many observables led to it, and counting them would blow the search up
// for cyclic graphs.
type witnessKey struct {
	state  int
	refSet int32 // lts.Subsets set id
	obs    int
}

// witnessNode is a BFS node with its parent pointer.
type witnessNode struct {
	witnessKey
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
	ref := lts.NewSubsets(reference)
	names := labelNames(subject)
	nodes := []witnessNode{{witnessKey: witnessKey{refSet: ref.Root()}, parent: -1}}
	visited := map[witnessKey]bool{nodes[0].witnessKey: true}
	for head := 0; head < len(nodes); head++ {
		cur := nodes[head]
		for _, e := range subject.Edges[cur.state] {
			// An internal subject move keeps the reference set.
			k := witnessKey{int(e.To), cur.refSet, cur.obs}
			if e.Label != lts.InternalID {
				if maxObs > 0 && cur.obs >= maxObs {
					continue // beyond the sound comparison bound
				}
				// Determinized reference step: all weak successors of the
				// set under the same observable label.
				if k.refSet = ref.Step(cur.refSet, names[e.Label]); k.refSet < 0 {
					if ref.Frontier(cur.refSet) {
						continue // unknown successors: cannot judge soundly
					}
					// Divergence: the reference cannot match this observable.
					return append(unwind(nodes, head), lts.PathStep{From: cur.state, Edge: e}), true
				}
				if maxObs > 0 {
					k.obs++
				}
			}
			if !visited[k] {
				visited[k] = true
				nodes = append(nodes, witnessNode{k, head, e})
			}
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
	// A node's obs counts the trace labels realized; refSet is unused.
	names := labelNames(subject)
	nodes := []witnessNode{{parent: -1}}
	visited := map[witnessKey]bool{{}: true}
	bestAt := 0
	for head := 0; head < len(nodes); head++ {
		cur := nodes[head]
		if cur.obs > nodes[bestAt].obs {
			bestAt = head
		}
		if nodes[bestAt].obs == len(trace) {
			break
		}
		for _, e := range subject.Edges[cur.state] {
			k := witnessKey{state: int(e.To), obs: cur.obs}
			if e.Label != lts.InternalID {
				if k.obs >= len(trace) || names[e.Label] != trace[k.obs] {
					continue
				}
				k.obs++
			}
			if !visited[k] {
				visited[k] = true
				nodes = append(nodes, witnessNode{k, head, e})
			}
		}
	}
	return unwind(nodes, bestAt), nodes[bestAt].obs
}

// labelNames renders each label of g's alphabet once, indexed by id.
func labelNames(g *lts.Graph) []string {
	names := make([]string, len(g.Alphabet))
	for id, l := range g.Alphabet {
		names[id] = l.String()
	}
	return names
}

// unwind returns the path from the root to nodes[at].
func unwind(nodes []witnessNode, at int) []lts.PathStep {
	var rev []lts.PathStep
	for ; nodes[at].parent >= 0; at = nodes[at].parent {
		rev = append(rev, lts.PathStep{From: nodes[nodes[at].parent].state, Edge: nodes[at].edge})
	}
	slices.Reverse(rev)
	return rev
}
