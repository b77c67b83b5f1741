package lts

import (
	"fmt"
	"sort"

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

// Edge is an outgoing transition of an explored state.
type Edge struct {
	Label Label
	To    int // target state index
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

// Explore builds the reachable transition graph of root under env, up to the
// limits. Exploration is breadth-first. When MaxObsDepth is set, states are
// (re-)expanded whenever a path with fewer observable steps reaches them, so
// the observable-depth accounting is exact.
func Explore(env *Env, root lotos.Expr, lim Limits) (*Graph, error) {
	g, _, err := ExploreSource(&exprSource{env: env}, lotos.Canon(root), root, lim, 1, nil)
	return g, err
}

// StateSource abstracts a transition system for the exploration core: the
// lts SOS semantics here, and the entity×medium product in internal/compose.
type StateSource interface {
	// Next appends the transitions of a state to out and returns the
	// extended slice. The targets carry their canonical keys. The caller
	// owns out: it reuses the slice for later states once it has read it,
	// and copies a key it keeps.
	Next(state any, out []GenTransition) ([]GenTransition, error)
}

// GenTransition is a transition of a generic state source.
type GenTransition struct {
	Label Label
	Key   string
	To    any
}

type exprSource struct{ env *Env }

func (s *exprSource) Next(state any, out []GenTransition) ([]GenTransition, error) {
	e := state.(lotos.Expr)
	ts, err := s.env.Transitions(e)
	if err != nil {
		return out, fmt.Errorf("state %s: %w", lotos.Format(e), err)
	}
	for _, t := range ts {
		out = append(out, GenTransition{Label: t.Label, Key: lotos.Canon(t.To), To: t.To})
	}
	return out, nil
}

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
	terminated := map[int]bool{}
	for _, es := range g.Edges {
		for _, e := range es {
			if e.Label.Kind == LDelta {
				terminated[e.To] = true
			}
		}
	}
	var out []int
	for s := range g.States {
		if len(g.Edges[s]) == 0 && !terminated[s] && !g.Frontier[s] {
			out = append(out, s)
		}
	}
	return out
}

// Labels returns the sorted set of distinct observable labels of the graph
// in readable form (gate keys plus "delta").
func (g *Graph) Labels() []string {
	set := map[string]bool{}
	for _, es := range g.Edges {
		for _, e := range es {
			switch e.Label.Kind {
			case LDelta:
				set["delta"] = true
			case LEvent:
				set[e.Label.Ev.Gate()] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
