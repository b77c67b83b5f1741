package lts

import (
	"cmp"
	"slices"
	"strings"
)

// Subsets is a lazy subset construction (determinizer) over one graph: its
// states are the τ-closed sets of graph states reachable by one weak trace,
// its transitions the observable labels (as rendered by Label.String). Every
// weak-trace question — trace enumeration and comparison, divergence
// witnesses, checking an observed trace against a service — walks one.
//
// Nothing is computed for the whole graph: a closure is one DFS over τ-edges
// with a reusable stamp array, a set is a sorted state list interned by
// hash, and a set's moves are computed on first request, then memoized. The
// graph's labels are rendered once per id, not once per edge. Over a
// StateSource even the rows are derived when a closure first reaches the
// state (see CheckServiceTrace). Not safe for concurrent use.
type Subsets struct {
	g      *Graph
	sets   [][]int32
	moves  [][]Move // memo of Moves; nil until computed
	byHash map[uint64][]int32

	stamp      []uint32
	epoch      uint32
	stack, buf []int32

	// names holds the distinct renderings of the alphabet's labels, sorted,
	// and rank the index in names of each label id's rendering (ids that
	// render alike share it). pairs and seed are Moves' scratch.
	names []string
	rank  []int32
	pairs []Edge
	seed  []int32

	// A non-nil src derives the rows of g, numbering at most max states: a
	// state whose successors would pass the cap keeps its edges to numbered
	// states and becomes a frontier state.
	src      StateSource
	index    map[string]int
	payloads []any           // nil once derived
	ts       []GenTransition // reused Next buffer
	max      int
	err      error // first derivation error
}

// Move is a determinized transition: the set reached under a label.
type Move struct {
	Label string // as rendered by Label.String
	To    int32
}

// NewSubsets returns a determinizer over an explored graph.
func NewSubsets(g *Graph) *Subsets {
	return &Subsets{g: g, byHash: map[uint64][]int32{}}
}

// Root returns the τ-closure of the initial state (-1 for an empty graph).
func (w *Subsets) Root() int32 {
	if len(w.g.Edges) == 0 {
		return -1
	}
	return w.closure([]int32{0})
}

// Frontier reports whether some member of the set is a frontier state, whose
// successors are (partly) unknown: a missing step from it is inconclusive.
func (w *Subsets) Frontier(set int32) bool {
	return len(w.g.Frontier) > 0 && slices.ContainsFunc(w.sets[set], func(s int32) bool { return w.g.Frontier[int(s)] })
}

// Moves returns the observable steps from a set, ordered by label (none from
// set -1).
func (w *Subsets) Moves(set int32) []Move {
	if set < 0 {
		return nil
	}
	if w.moves[set] != nil {
		return w.moves[set]
	}
	// The members' observable edges, by the rank of their rendered label.
	// A closure may derive rows and grow the alphabet, so the ranks are
	// read before any.
	w.rankLabels()
	names, pairs := w.names, w.pairs[:0]
	for _, s := range w.sets[set] {
		for _, e := range w.g.Edges[s] {
			if e.Label != InternalID {
				pairs = append(pairs, Edge{Label: LabelID(w.rank[e.Label]), To: e.To})
			}
		}
	}
	slices.SortFunc(pairs, func(a, b Edge) int { return cmp.Compare(a.Label, b.Label) })
	w.pairs = pairs
	distinct := 0
	for i := range pairs {
		if i == 0 || pairs[i].Label != pairs[i-1].Label {
			distinct++
		}
	}
	moves := make([]Move, 0, distinct)
	for i := 0; i < len(pairs); {
		seed := w.seed[:0]
		j := i
		for ; j < len(pairs) && pairs[j].Label == pairs[i].Label; j++ {
			seed = append(seed, pairs[j].To)
		}
		w.seed = seed
		moves = append(moves, Move{Label: names[pairs[i].Label], To: w.closure(seed)})
		i = j
	}
	w.moves[set] = moves
	return moves
}

// rankLabels renders the graph's alphabet and ranks the renderings, again
// whenever the alphabet has grown since.
func (w *Subsets) rankLabels() {
	a := w.g.Alphabet
	if len(w.rank) == len(a) {
		return
	}
	rendered := make([]string, len(a))
	for id, l := range a {
		rendered[id] = l.String()
	}
	w.names = slices.Clone(rendered)
	slices.Sort(w.names)
	w.names = slices.Compact(w.names)
	w.rank = make([]int32, len(a))
	for id, r := range rendered {
		i, _ := slices.BinarySearch(w.names, r)
		w.rank[id] = int32(i)
	}
}

// Step returns the set reached from set under a label, or -1 when no member
// offers it.
func (w *Subsets) Step(set int32, label string) int32 {
	for _, m := range w.Moves(set) {
		if m.Label == label {
			return m.To
		}
	}
	return -1
}

// Walk follows a trace of label names from the root. It returns the set
// reached by the longest accepted prefix and that prefix's length (the
// trace is accepted when it is len(labels)), and whether a set on the way
// had a frontier member — then a rejection may be a truncation artifact.
func (w *Subsets) Walk(labels []string) (set int32, accepted int, truncated bool) {
	for set = w.Root(); set >= 0; accepted++ {
		truncated = truncated || w.Frontier(set)
		if accepted == len(labels) || w.Step(set, labels[accepted]) < 0 {
			break
		}
		set = w.Step(set, labels[accepted])
	}
	return set, accepted, truncated
}

// closure interns the τ-closure of the seed states.
func (w *Subsets) closure(seed []int32) int32 {
	w.epoch++
	w.buf, w.stack = w.buf[:0], append(w.stack[:0], seed...)
	for len(w.stack) > 0 {
		s := w.stack[len(w.stack)-1]
		w.stack = w.stack[:len(w.stack)-1]
		if int(s) >= len(w.stamp) {
			w.stamp = append(w.stamp, make([]uint32, int(s)+1-len(w.stamp))...)
		}
		if w.stamp[s] == w.epoch {
			continue
		}
		w.stamp[s] = w.epoch
		w.buf = append(w.buf, s)
		if w.src != nil && w.payloads[s] != nil {
			w.derive(int(s))
		}
		for _, e := range w.g.Edges[s] {
			if e.Label == InternalID {
				w.stack = append(w.stack, e.To)
			}
		}
	}
	slices.Sort(w.buf)
	return w.intern(w.buf)
}

// intern returns the id of a sorted state set, copying it when new.
func (w *Subsets) intern(set []int32) int32 {
	h := uint64(14695981039346656037) // FNV-1a
	for _, s := range set {
		h = (h ^ uint64(uint32(s))) * 1099511628211
	}
	for _, id := range w.byHash[h] {
		if slices.Equal(w.sets[id], set) {
			return id
		}
	}
	id := int32(len(w.sets))
	w.sets = append(w.sets, slices.Clone(set))
	w.moves = append(w.moves, nil)
	w.byHash[h] = append(w.byHash[h], id)
	return id
}

// derive fills the row of state s from the source.
func (w *Subsets) derive(s int) {
	var ts []GenTransition
	if w.err == nil {
		ts, w.err = w.src.Next(w.payloads[s], w.ts[:0])
		w.ts = ts
		defer clear(ts)
	}
	w.payloads[s] = nil
	if w.err != nil {
		w.g.Frontier[s] = true
	}
	w.g.Alphabet = w.src.Alphabet()
	for _, t := range ts {
		id, ok := w.index[t.Key]
		switch {
		case ok:
		case len(w.g.Edges) >= w.max:
			w.g.Frontier[s] = true
			continue
		default:
			id = len(w.g.Edges)
			w.index[strings.Clone(t.Key)] = id
			w.payloads = append(w.payloads, t.To)
			w.g.Edges = append(w.g.Edges, nil)
		}
		w.g.Edges[s] = append(w.g.Edges[s], Edge{Label: t.Label, To: int32(id)})
	}
}
