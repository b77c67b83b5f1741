package lts

import (
	"fmt"
	"math"
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
	all, _ := DiffWeakTraces(g, &Graph{}, maxLen, math.MaxInt)
	return append([]string{""}, all...)
}

// DiffWeakTraces compares the weak traces of two graphs up to maxLen labels:
// only1 holds the first limit traces, in sorted order, that g1 has and g2
// lacks, only2 the converse. Both are nil when the bounded sets agree.
//
// It is one DFS over pairs of determinized states (-1 for the side lacking
// the trace), children in label order. No rendered label contains a byte at
// or below TraceSep, so the preorder is the sorted order of the traces. A
// pair whose next r levels added no example is not searched again with r or
// fewer levels left, and the search stops once both sides hold limit.
func DiffWeakTraces(g1, g2 *Graph, maxLen, limit int) (only1, only2 []string) {
	w := [2]*Subsets{NewSubsets(g1), NewSubsets(g2)}
	var only [2][]string
	var path []string
	full := func(side int) bool { return len(only[side]) >= limit }
	quiet := map[[2]int32]int{} // pair -> levels known to add no example
	// walk searches the r levels below pair p and reports whether it added
	// no example.
	var walk func(p [2]int32, r int) bool
	walk = func(p [2]int32, r int) bool {
		m0, m1 := w[0].Moves(p[0]), w[1].Moves(p[1])
		added := false
		// Merge the two label-ordered move lists.
		for i, j := 0, 0; i < len(m0) || j < len(m1); {
			if full(0) && full(1) {
				break
			}
			var l string
			next := [2]int32{-1, -1}
			switch {
			case j == len(m1) || i < len(m0) && m0[i].Label < m1[j].Label:
				l, next[0] = m0[i].Label, m0[i].To
				i++
			case i == len(m0) || m1[j].Label < m0[i].Label:
				l, next[1] = m1[j].Label, m1[j].To
				j++
			default:
				l, next = m0[i].Label, [2]int32{m0[i].To, m1[j].To}
				i, j = i+1, j+1
			}
			path = append(path, l)
			side := 0 // the side that has the trace, when one lacks it
			if next[0] < 0 {
				side = 1
			}
			switch known, ok := quiet[next]; {
			case next[0] >= 0 && next[1] >= 0:
				if r > 1 && (!ok || known < r-1) {
					added = !walk(next, r-1) || added
				}
			case !full(side):
				only[side] = append(only[side], strings.Join(path, TraceSep))
				added = true
				if r > 1 {
					walk(next, r-1)
				}
			}
			path = path[:len(path)-1]
		}
		if !added && p[0] >= 0 && p[1] >= 0 {
			quiet[p] = r
		}
		return !added
	}
	if maxLen > 0 {
		walk([2]int32{w[0].Root(), w[1].Root()}, maxLen)
	}
	return only[0], only[1]
}

// AcceptsTrace reports whether the given observable trace (labels rendered
// as by Label.String, joined with TraceSep; "" is the empty trace) is a weak
// trace of the graph. For a truncated graph a false result may be spurious;
// true results are always sound.
func AcceptsTrace(g *Graph, trace string) bool {
	labels := ParseTrace(trace)
	_, n, _ := NewSubsets(g).Walk(labels)
	return n == len(labels)
}

// ServiceTrace is the outcome of CheckServiceTrace: whether the trace, and
// the trace followed by δ, are weak traces of the service, and whether the
// state cap left a state the walk needed unexpanded — which makes a negative
// answer inconclusive (the path may lie past the cap).
//
// For a rejected trace walked without hitting the cap, Rejected is the index
// of the first event the service refused and Allowed the labels it offered
// there, sorted.
type ServiceTrace struct {
	Accepted, CanTerminate, Capped bool
	Rejected                       int
	Allowed                        []string
}

// Rejection explains a conclusive rejection of labels, the trace checked:
// `event N "x" rejected; service allowed [..]`, N counting from 1.
func (st ServiceTrace) Rejection(labels []string) string {
	return fmt.Sprintf("event %d %q rejected; service allowed [%s]",
		st.Rejected+1, labels[st.Rejected], strings.Join(st.Allowed, " "))
}

// CheckServiceTrace replays an observed trace (labels rendered as by
// Label.String) against the service. The service's states are derived
// lazily, only those the trace's determinized walk reaches, so the check is
// sound for recursive, infinite-state services and costs about as much per
// event however long the trace; maxStates caps the derived states (0
// selects DefaultMaxStates).
func CheckServiceTrace(service *lotos.Spec, labels []string, maxStates int) (ServiceTrace, error) {
	env, err := EnvFor(service)
	if err != nil {
		return ServiceTrace{}, err
	}
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	root := service.Root.Expr
	w := NewSubsets(&Graph{Edges: make([][]Edge, 1), Alphabet: []Label{Internal(), Delta()}, Frontier: map[int]bool{}})
	w.src, w.index, w.payloads, w.max = newExprSource(env), map[string]int{lotos.Canon(root): 0}, []any{root}, maxStates
	end, n, capped := w.Walk(labels)
	if w.err != nil {
		return ServiceTrace{}, w.err
	}
	out := ServiceTrace{Accepted: n == len(labels), Capped: capped}
	switch {
	case out.Accepted:
		out.CanTerminate = w.Step(end, Delta().String()) >= 0
	case !capped:
		out.Rejected = n
		for _, m := range w.Moves(end) {
			out.Allowed = append(out.Allowed, m.Label)
		}
	}
	return out, nil
}

// ParseTrace splits a rendered trace into labels.
func ParseTrace(tr string) []string {
	if tr == "" {
		return nil
	}
	return strings.Split(tr, TraceSep)
}

// JoinTrace renders a label sequence as a trace string.
func JoinTrace(labels []string) string { return strings.Join(labels, TraceSep) }
