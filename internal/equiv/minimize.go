package equiv

import (
	"repro/internal/lotos"
	"repro/internal/lts"
)

// QuotientWeak builds the quotient of a transition graph under weak
// bisimilarity: states are merged into their equivalence classes, and the
// class graph carries one edge per distinct (label, target-class) pair of
// its members' transitions, with internal moves inside one class collapsed.
// The result is weakly bisimilar to the input (checked by the tests) and is
// the canonical minimal-form presentation used when reporting explored
// behaviours.
//
// The initial state's class is state 0 of the quotient.
func QuotientWeak(g *lts.Graph) *lts.Graph {
	q, _ := QuotientWeakMap(g)
	return q
}

// QuotientWeakMap is QuotientWeak returning, alongside the quotient, the
// per-state class assignment: classOf[s] is the quotient state holding input
// state s. The FSM compiler (internal/fsm) uses the assignment to relate its
// exact execution tables to the minimized canonical tables.
func QuotientWeakMap(g *lts.Graph) (*lts.Graph, []int32) {
	e := newWeakEngine(g, nil)
	return buildQuotient(g, func(s int) int32 { return e.stateBlock(s) })
}

// buildQuotient constructs the class graph from a per-state block
// assignment, returning it with the renumbered per-state class map. The
// class graph shares g's alphabet, so its edges keep their label ids, and
// a graph's ids are equal exactly when the labels' keys are, so the
// per-class (label, target) edge dedup compares ids.
func buildQuotient(g *lts.Graph, blockOf func(int) int32) (*lts.Graph, []int32) {
	// Renumber blocks so the initial state's block is 0, then by first
	// appearance.
	blockIndex := map[int32]int{}
	count := 0
	assign := func(b int32) int {
		if id, ok := blockIndex[b]; ok {
			return id
		}
		id := count
		blockIndex[b] = id
		count++
		return id
	}
	assign(blockOf(0))
	for s := 0; s < g.NumStates(); s++ {
		assign(blockOf(s))
	}

	n := count
	q := &lts.Graph{
		States:   make([]lotos.Expr, n),
		Keys:     make([]string, n),
		Edges:    make([][]lts.Edge, n),
		Alphabet: g.Alphabet,
		ObsDepth: make([]int, n),
		Frontier: map[int]bool{},
	}

	// assigned tracks which classes have adopted a representative state.
	// (A key-emptiness check would misbehave for states whose canonical key
	// is legitimately empty.)
	assigned := make([]bool, n)
	adopt := func(from, s int) {
		if assigned[from] {
			return
		}
		assigned[from] = true
		q.Keys[from] = g.Keys[s]
		if s < len(g.States) {
			q.States[from] = g.States[s]
		}
	}

	seen := make([]map[uint64]bool, n)
	for i := range seen {
		seen[i] = map[uint64]bool{}
	}
	for s, es := range g.Edges {
		from := blockIndex[blockOf(s)]
		adopt(from, s)
		for _, e := range es {
			to := int32(blockIndex[blockOf(int(e.To))])
			if e.Label == lts.InternalID && int(to) == from {
				continue // internal move within one class: collapsed
			}
			key := packPair(e.Label, to)
			if seen[from][key] {
				continue
			}
			seen[from][key] = true
			q.Edges[from] = append(q.Edges[from], lts.Edge{Label: e.Label, To: to})
		}
		if g.Frontier[s] {
			q.Frontier[from] = true
		}
	}
	// Classes containing only terminal states have no edge row above; give
	// them a representative too.
	classOf := make([]int32, g.NumStates())
	for s := range g.Keys {
		c := blockIndex[blockOf(s)]
		adopt(c, s)
		classOf[s] = int32(c)
	}
	q.Truncated = g.Truncated
	return q, classOf
}

// NumClassesWeak returns the number of weak-bisimilarity classes of g.
func NumClassesWeak(g *lts.Graph) int {
	return newWeakEngine(g, nil).blocks
}
