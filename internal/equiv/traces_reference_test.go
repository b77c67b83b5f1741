package equiv

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lotos"
	"repro/internal/lts"
)

// The weak-trace layer before the lazy subset walker, kept as the reference
// the walker is checked against: every trace written out as a string,
// deduplicated by prefix-plus-state-set keys over τ-closures computed for
// every state, and the two sorted sets merged.

// refWeakTraces is the reference enumeration of lts.WeakTraces.
func refWeakTraces(g *lts.Graph, maxLen int) []string {
	set := map[string]bool{"": true}
	closure := refEpsilonClosures(g)

	type item struct {
		states []int
		prefix string
		depth  int
	}
	seen := map[string]bool{}
	queue := []item{{states: closure[0], prefix: "", depth: 0}}
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
				if e.Label == lts.InternalID {
					continue
				}
				l := g.Alphabet[e.Label]
				k := l.Key()
				byLabel[k] = append(byLabel[k], closure[e.To]...)
				names[k] = l.String()
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
				prefix += lts.TraceSep
			}
			prefix += names[k]
			set[prefix] = true
			targets := dedup(byLabel[k])
			sig := prefix + "\x00" + refIntsKey(targets)
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

// refEpsilonClosures returns, for every state, the sorted set of states
// reachable by zero or more internal transitions.
func refEpsilonClosures(g *lts.Graph) [][]int {
	out := make([][]int, len(g.States))
	for s := range g.States {
		out[s] = epsClosure(g, s)
		sort.Ints(out[s])
	}
	return out
}

func refIntsKey(xs []int) string {
	var b strings.Builder
	for _, x := range xs {
		b.WriteByte(',')
		b.WriteString(strconv.Itoa(x))
	}
	return b.String()
}

// refTraceSetDiff is the reference merge of two sorted trace sets: the
// first limit traces each side has and the other lacks, in order.
func refTraceSetDiff(t1, t2 []string, limit int) (only1, only2 []string) {
	i, j := 0, 0
	n1, n2 := 0, 0
	for i < len(t1) || j < len(t2) {
		switch {
		case j == len(t2) || (i < len(t1) && t1[i] < t2[j]):
			if n1 < limit {
				only1 = append(only1, t1[i])
			}
			n1++
			i++
		case i == len(t1) || t2[j] < t1[i]:
			if n2 < limit {
				only2 = append(only2, t2[j])
			}
			n2++
			j++
		default:
			i++
			j++
		}
	}
	return only1, only2
}

// TestWeakTraceWalkMatchesReference checks the lazy subset walker against
// the reference enumeration over random expressions, explored in full and
// truncated by a small state cap or observable depth, and over random cyclic
// graphs: WeakTraces, TraceDiff at limits 1, 5 and unbounded, and
// WeakTraceEquivalent must all agree with the reference trace sets.
func TestWeakTraceWalkMatchesReference(t *testing.T) {
	explore := func(e lotos.Expr, lim lts.Limits) *lts.Graph {
		res, err := lotos.Resolve(&lotos.Spec{Root: &lotos.DefBlock{Expr: e}})
		if err != nil {
			t.Fatal(err)
		}
		g, err := lts.Explore(lts.NewEnv(res), e, lim)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	for seed := int64(0); seed < 600; seed++ {
		r := rand.New(rand.NewSource(seed))
		var g1, g2 *lts.Graph
		var where func() string
		maxLen := r.Intn(6)
		if seed%2 == 0 {
			e1 := genLawExpr(r, 2+r.Intn(3))
			e2 := genLawExpr(r, 2+r.Intn(3))
			if r.Intn(3) == 0 {
				// A trace-equivalent partner: an internal step before e1.
				e2 = lotos.Pfx(lotos.InternalEvent(), lotos.Clone(e1))
			}
			var lim lts.Limits
			switch r.Intn(3) {
			case 1:
				lim.MaxStates = 1 + r.Intn(12)
			case 2:
				lim.MaxObsDepth = 1 + r.Intn(3)
			}
			g1, g2 = explore(e1, lim), explore(e2, lim)
			where = func() string {
				return "seed " + strconv.FormatInt(seed, 10) + ": " + lotos.Format(e1) + " vs " + lotos.Format(e2)
			}
		} else {
			// Random cyclic graphs reach one determinized pair at several
			// depths, which exercises the search's per-pair depth memo.
			g1, g2 = randomCyclicGraph(r), randomCyclicGraph(r)
			maxLen = 3 + r.Intn(5)
			where = func() string { return "seed " + strconv.FormatInt(seed, 10) + ": random graphs" }
		}
		t1, t2 := refWeakTraces(g1, maxLen), refWeakTraces(g2, maxLen)
		if got := lts.WeakTraces(g1, maxLen); !reflect.DeepEqual(got, t1) {
			t.Fatalf("%s: WeakTraces = %q, reference %q", where(), got, t1)
		}
		for _, limit := range []int{1, 5, math.MaxInt} {
			got1, got2 := TraceDiff(g1, g2, maxLen, limit)
			want1, want2 := refTraceSetDiff(t1, t2, limit)
			if !reflect.DeepEqual(got1, want1) || !reflect.DeepEqual(got2, want2) {
				t.Fatalf("%s: TraceDiff(limit %d) = %q / %q, reference %q / %q",
					where(), limit, got1, got2, want1, want2)
			}
		}
		if got, want := WeakTraceEquivalent(g1, g2, maxLen), reflect.DeepEqual(t1, t2); got != want {
			t.Fatalf("%s: WeakTraceEquivalent = %v, reference %v", where(), got, want)
		}
	}
}

// randomCyclicGraph builds a small graph with random edges over three
// events, δ and i, cycles included.
func randomCyclicGraph(r *rand.Rand) *lts.Graph {
	n := 1 + r.Intn(6)
	g := &lts.Graph{States: make([]lotos.Expr, n), Edges: make([][]lts.Edge, n)}
	labels := []lts.Label{
		lts.EventLabel(lotos.ServiceEvent("a", 1)), lts.EventLabel(lotos.ServiceEvent("b", 1)),
		lts.EventLabel(lotos.ServiceEvent("c", 2)), lts.Delta(), lts.Internal(), lts.Internal(),
	}
	for i := r.Intn(3 * n); i >= 0; i-- {
		s := r.Intn(n)
		g.AddEdge(s, labels[r.Intn(len(labels))], r.Intn(n))
	}
	return g
}
