package lts

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/lotos"
)

// TraceSep separates labels within a rendered trace.
const TraceSep = " "

// WeakTraces enumerates the observable traces of the graph up to maxLen
// labels, skipping internal actions (weak traces). δ appears as the label
// "delta". The result is sorted and duplicate-free. Traces of a truncated
// graph are a subset of the true trace set.
//
// The empty trace is always included (as the empty string).
func WeakTraces(g *Graph, maxLen int) []string {
	set := map[string]bool{"": true}

	// stateSet-based BFS over determinized weak transitions would be
	// exponential in the worst case; trace enumeration is bounded by maxLen
	// so a direct memoized walk over (state, prefix) suffices here. To keep
	// the walk finite we track visited (state, depth) pairs per prefix via
	// iterative deepening on the ε-closure graph.
	closure := EpsilonClosures(g)

	type item struct {
		states []int
		prefix string
		depth  int
	}
	seen := map[string]bool{}
	start := closure[0]
	queue := []item{{states: start, prefix: "", depth: 0}}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		if it.depth >= maxLen {
			continue
		}
		// Group successors by observable label.
		byLabel := map[string][]int{}
		names := map[string]string{}
		for _, s := range it.states {
			for _, e := range g.Edges[s] {
				if !e.Label.Observable() {
					continue
				}
				k := e.Label.Key()
				byLabel[k] = append(byLabel[k], closure[e.To]...)
				names[k] = e.Label.String()
			}
		}
		keys := make([]string, 0, len(byLabel))
		for k := range byLabel {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			prefix := it.prefix
			if prefix != "" {
				prefix += TraceSep
			}
			prefix += names[k]
			set[prefix] = true
			targets := dedupInts(byLabel[k])
			sig := prefix + "\x00" + IntsKey(targets)
			if seen[sig] {
				continue
			}
			seen[sig] = true
			queue = append(queue, item{states: targets, prefix: prefix, depth: it.depth + 1})
		}
	}
	out := make([]string, 0, len(set))
	for tr := range set {
		out = append(out, tr)
	}
	sort.Strings(out)
	return out
}

// EpsilonClosures returns, for every state, the set of states reachable by
// zero or more internal transitions (sorted): the τ-closures the weak-trace
// walks and the equivalence witness search step through.
func EpsilonClosures(g *Graph) [][]int {
	out := make([][]int, len(g.States))
	for s := range g.States {
		visited := map[int]bool{s: true}
		stack := []int{s}
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range g.Edges[cur] {
				if e.Label.Kind == LInternal && !visited[e.To] {
					visited[e.To] = true
					stack = append(stack, e.To)
				}
			}
		}
		cl := make([]int, 0, len(visited))
		for st := range visited {
			cl = append(cl, st)
		}
		sort.Ints(cl)
		out[s] = cl
	}
	return out
}

func dedupInts(xs []int) []int {
	sort.Ints(xs)
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// IntsKey renders a sorted int set canonically (a map key).
func IntsKey(xs []int) string {
	var b strings.Builder
	for _, x := range xs {
		b.WriteByte(',')
		b.WriteString(strconv.Itoa(x))
	}
	return b.String()
}

// AcceptsTrace reports whether the given observable trace (labels rendered
// as by Label.String, joined with TraceSep; "" is the empty trace) is a weak
// trace of the graph. For a truncated graph a false result may be spurious;
// true results are always sound.
func AcceptsTrace(g *Graph, trace string) bool {
	return weakWalk(g, EpsilonClosures(g), ParseTrace(trace)) != nil
}

// weakWalk returns the states the weak trace leads to from the initial
// state, or nil when it is not a weak trace of the graph.
func weakWalk(g *Graph, closure [][]int, labels []string) []int {
	current := closure[0]
	for _, want := range labels {
		var next []int
		for _, s := range current {
			for _, e := range g.Edges[s] {
				if e.Label.Observable() && e.Label.String() == want {
					next = append(next, closure[e.To]...)
				}
			}
		}
		if len(next) == 0 {
			return nil
		}
		current = dedupInts(next)
	}
	return current
}

// ServiceTrace is the outcome of CheckServiceTrace: whether the trace, and
// the trace followed by δ, are weak traces of the service, and whether the
// state cap, not the observable-depth bound, truncated the service graph —
// which makes a negative answer inconclusive (the path may lie past the cap).
type ServiceTrace struct{ Accepted, CanTerminate, Capped bool }

// CheckServiceTrace replays an observed trace (labels rendered as by
// Label.String) against the service. The service is explored exactly as
// deep as the trace needs — observable depth len(labels)+2 — so the check is
// sound for recursive, infinite-state services as well; maxStates caps the
// exploration (0 selects DefaultMaxStates).
func CheckServiceTrace(service *lotos.Spec, labels []string, maxStates int) (ServiceTrace, error) {
	lim := Limits{MaxObsDepth: len(labels) + 2, MaxStates: maxStates}
	g, err := ExploreSpec(service, lim)
	if err != nil {
		return ServiceTrace{}, err
	}
	var out ServiceTrace
	for s := range g.Frontier {
		if g.ObsDepth[s] < lim.MaxObsDepth {
			out.Capped = true
			break
		}
	}
	end := weakWalk(g, EpsilonClosures(g), labels)
	out.Accepted = end != nil
	for _, s := range end {
		for _, e := range g.Edges[s] {
			out.CanTerminate = out.CanTerminate || e.Label.Kind == LDelta
		}
	}
	return out, nil
}

// TraceSlice is a parsed observable trace.
type TraceSlice []string

// ParseTrace splits a rendered trace into labels.
func ParseTrace(tr string) TraceSlice {
	if tr == "" {
		return nil
	}
	return strings.Split(tr, TraceSep)
}

// JoinTrace renders a label sequence as a trace string.
func JoinTrace(labels []string) string { return strings.Join(labels, TraceSep) }
