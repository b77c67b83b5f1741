package lts

import (
	"fmt"
	"slices"

	"repro/internal/lotos"
)

// Limits bounds state-space exploration. Zero fields select defaults.
type Limits struct {
	// MaxStates caps the number of distinct states explored.
	MaxStates int
	// MaxObsDepth caps the exploration depth counted in OBSERVABLE
	// transitions only (internal actions are free). With MaxObsDepth = L
	// and no other truncation, the explored graph contains every weak
	// trace of length up to L exactly — the sound bounded comparison used
	// for infinite-state recursive specifications. 0 means unbounded.
	MaxObsDepth int
}

// DefaultMaxStates is the default exploration cap.
const DefaultMaxStates = 20000

// Edge is an outgoing transition of an explored state: 8 bytes and no
// pointer, so a graph's edges cost the collector nothing to scan.
type Edge struct {
	Label LabelID // index into the graph's Alphabet
	To    int32   // target state index
}

// Graph is an explored (possibly truncated) labelled transition system.
type Graph struct {
	// States holds one representative expression per state; state 0 is the
	// initial state.
	States []lotos.Expr
	// Keys holds the canonical key of each state.
	Keys []string
	// Edges holds the outgoing edges of each state, in derivation order.
	Edges [][]Edge
	// Alphabet holds the label of each LabelID the edges carry, indexed by
	// id; InternalID and DeltaID are always its first two entries. Ids
	// follow interning order, so nothing orders or renders by them. An
	// explored graph shares the slice with its source's table, which only
	// appends past it: no entry is ever written in place.
	Alphabet []Label
	// ObsDepth holds the minimal number of observable transitions needed
	// to reach each state.
	ObsDepth []int
	// Truncated reports that a limit stopped exploration before closure:
	// some states may have unexplored successors.
	Truncated bool
	// Frontier marks states whose successors were NOT derived because of
	// truncation (their Edges are empty but they are not terminal).
	Frontier map[int]bool
}

// NumStates returns the number of explored states.
func (g *Graph) NumStates() int { return len(g.States) }

// NumTransitions returns the number of explored transitions.
func (g *Graph) NumTransitions() int {
	n := 0
	for _, es := range g.Edges {
		n += len(es)
	}
	return n
}

// AddEdge appends an edge labelled l from state from to state to,
// interning l into the graph's alphabet by a scan of its keys: for graphs
// built by hand, which are small. Explorers intern through a LabelTable.
func (g *Graph) AddEdge(from int, l Label, to int) {
	if len(g.Alphabet) == 0 {
		g.Alphabet = []Label{Internal(), Delta()}
	}
	key := l.Key()
	id := slices.IndexFunc(g.Alphabet, func(a Label) bool { return a.Key() == key })
	if id < 0 {
		id = len(g.Alphabet)
		g.Alphabet = append(g.Alphabet, l)
	}
	g.Edges[from] = append(g.Edges[from], Edge{Label: LabelID(id), To: int32(to)})
}

// Explore builds the reachable transition graph of root under env, up to the
// limits. Exploration is breadth-first. When MaxObsDepth is set, states are
// (re-)expanded whenever a path with fewer observable steps reaches them, so
// the observable-depth accounting is exact.
func Explore(env *Env, root lotos.Expr, lim Limits) (*Graph, error) {
	g, _, err := ExploreSource(newExprSource(env), lotos.Canon(root), root, lim, 1, nil)
	return g, err
}

// StateSource abstracts a transition system for the exploration core: the
// lts SOS semantics here, the entity×medium product in internal/compose and
// a machine's rows in internal/fsm.
type StateSource interface {
	// Next appends the transitions of a state to out and returns the
	// extended slice. The targets carry their canonical keys, the labels
	// their ids in the source's graph table (see NewGraphTable). The
	// caller owns out: it reuses the slice for later states once it has
	// read it, and copies a key it keeps.
	Next(state any, out []GenTransition) ([]GenTransition, error)
	// Alphabet returns the label of every id Next has returned so far,
	// indexed by id (see LabelTable.Alphabet): the explored graph's
	// Alphabet.
	Alphabet() []Label
}

// A SizedSource is a StateSource that knows how large its explorations
// grow: the explorer presizes its visited index, its per-state slices and
// its derivation buffers from Size, and reports each finished exploration's
// size through Explored, for the next one. A size changes no graph, only
// how often its slices grow.
type SizedSource interface {
	StateSource
	Size() Size
	Explored(Size)
}

// Size measures a graph-building exploration: its states and derived
// transitions, and the most states and transitions one of its levels
// expanded and derived.
type Size struct {
	States, Transitions     int
	Level, LevelTransitions int
}

// GenTransition is a transition of a generic state source.
type GenTransition struct {
	Label LabelID
	Key   string
	To    any
}

// exprSource is the SOS semantics of one specification as a StateSource,
// interning labels into its own graph table.
type exprSource struct {
	env    *Env
	labels *LabelTable
}

func newExprSource(env *Env) *exprSource {
	return &exprSource{env: env, labels: NewGraphTable()}
}

func (s *exprSource) Next(state any, out []GenTransition) ([]GenTransition, error) {
	e := state.(lotos.Expr)
	ts, err := s.env.Transitions(e)
	if err != nil {
		return out, fmt.Errorf("state %s: %w", lotos.Format(e), err)
	}
	for _, t := range ts {
		out = append(out, GenTransition{Label: s.labels.Intern(t.Label), Key: lotos.Canon(t.To), To: t.To})
	}
	return out, nil
}

func (s *exprSource) Alphabet() []Label { return s.labels.Alphabet() }

// ExploreSpec resolves and explores a complete specification.
func ExploreSpec(sp *lotos.Spec, lim Limits) (*Graph, error) {
	env, err := EnvFor(sp)
	if err != nil {
		return nil, err
	}
	return Explore(env, sp.Root.Expr, lim)
}

// Deadlocks returns the states that have no outgoing transitions and were
// not reached by a successful-termination step: genuine deadlocks, as
// opposed to the terminal state following δ. Frontier states of a truncated
// graph are not reported (their successors are unknown).
func (g *Graph) Deadlocks() []int {
	var out []int
	for s := range g.States {
		if len(g.Edges[s]) == 0 && !g.Frontier[s] {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		return nil
	}
	terminated := make([]bool, len(g.Edges))
	for _, es := range g.Edges {
		for _, e := range es {
			if e.Label == DeltaID {
				terminated[e.To] = true
			}
		}
	}
	return slices.DeleteFunc(out, func(s int) bool { return terminated[s] })
}

// Labels returns the sorted set of distinct observable labels of the graph
// in readable form (gate keys plus "delta").
func (g *Graph) Labels() []string {
	used := make([]bool, len(g.Alphabet))
	for _, es := range g.Edges {
		for _, e := range es {
			used[e.Label] = true
		}
	}
	out := make([]string, 0, len(used))
	for id, u := range used {
		switch l := g.Alphabet[id]; {
		case !u:
		case l.Kind == LDelta:
			out = append(out, "delta")
		case l.Kind == LEvent:
			out = append(out, l.Ev.Gate())
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}
