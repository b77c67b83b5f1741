package equiv

import (
	"testing"

	"repro/internal/lotos"
	"repro/internal/lts"
)

// fuzzLabels is the fuzzed graphs' alphabet: i, δ and three observable
// events (three, so the τ-laws of diffPairs keep their meaning as seeds).
var fuzzLabels = []lts.Label{
	lts.Internal(),
	lts.Delta(),
	lts.EventLabel(lotos.ServiceEvent("a", 1)),
	lts.EventLabel(lotos.ServiceEvent("b", 1)),
	lts.EventLabel(lotos.ServiceEvent("c", 1)),
}

// fuzzMaxStates bounds each decoded graph, fuzzMaxEdges the pair's edges.
const (
	fuzzMaxStates = 12
	fuzzMaxEdges  = 64
)

// decodeGraphPair reads two raw graphs from data: one byte each for the
// state counts (mod fuzzMaxStates, plus one), then up to fuzzMaxEdges
// (source, label, target) byte triples. A source below n1 adds an edge to
// g1, any other source an edge to g2; labels and targets are reduced
// modulo the alphabet and the graph's state count. Any byte string
// decodes, τ-cycles, inert τ chains, unreachable states and duplicate
// edges included.
func decodeGraphPair(data []byte) (g1, g2 *lts.Graph) {
	if len(data) < 2 {
		return nil, nil
	}
	n1 := 1 + int(data[0])%fuzzMaxStates
	n2 := 1 + int(data[1])%fuzzMaxStates
	g1, g2 = rawGraph(n1), rawGraph(n2)
	rest := data[2:]
	if len(rest) > 3*fuzzMaxEdges {
		rest = rest[:3*fuzzMaxEdges]
	}
	for ; len(rest) >= 3; rest = rest[3:] {
		src := int(rest[0]) % (n1 + n2)
		lab := fuzzLabels[int(rest[1])%len(fuzzLabels)]
		g, n := g1, n1
		if src >= n1 {
			g, n, src = g2, n2, src-n1
		}
		g.AddEdge(src, lab, int(rest[2])%n)
	}
	return g1, g2
}

// rawGraph returns an edgeless graph of n states with distinct keys.
func rawGraph(n int) *lts.Graph {
	g := &lts.Graph{
		States:   make([]lotos.Expr, n),
		Keys:     make([]string, n),
		Edges:    make([][]lts.Edge, n),
		ObsDepth: make([]int, n),
		Frontier: map[int]bool{},
	}
	for s := range g.Keys {
		g.Keys[s] = string(rune('A' + s))
	}
	return g
}

// encodeGraphPair is decodeGraphPair's inverse for graphs within its bounds
// over at most three observable events, mapped to a,
// b, c in order of first appearance; ok is false for any other pair.
func encodeGraphPair(g1, g2 *lts.Graph) (data []byte, ok bool) {
	n1, n2 := g1.NumStates(), g2.NumStates()
	if n1 > fuzzMaxStates || n2 > fuzzMaxStates || g1.NumTransitions()+g2.NumTransitions() > fuzzMaxEdges {
		return nil, false
	}
	events := map[string]byte{}
	data = []byte{byte(n1 - 1), byte(n2 - 1)}
	for gi, g := range []*lts.Graph{g1, g2} {
		for s, es := range g.Edges {
			for _, e := range es {
				var code byte
				switch l := g.Alphabet[e.Label]; l.Kind {
				case lts.LInternal:
					code = 0
				case lts.LDelta:
					code = 1
				default:
					c, seen := events[l.Key()]
					if !seen {
						if len(events) == 3 {
							return nil, false
						}
						c = byte(2 + len(events))
						events[l.Key()] = c
					}
					code = c
				}
				data = append(data, byte(s+gi*n1), code, byte(e.To))
			}
		}
	}
	return data, true
}

// FuzzWeakEngine differentially checks the equivalence engine — its
// branching-bisimulation pre-pass included — against the reference
// checker on raw graph pairs, which reach shapes expression-built graphs
// seldom have: τ-cycles through several states, inert τ chains, τ moves
// between otherwise identical states. Seeds are the law pairs of
// diffPairs.
func FuzzWeakEngine(f *testing.F) {
	for _, pair := range diffPairs {
		if data, ok := encodeGraphPair(graphOf(f, pair[0]), graphOf(f, pair[1])); ok {
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g1, g2 := decodeGraphPair(data)
		if g1 == nil {
			return
		}
		if got, want := WeakBisimilar(g1, g2), RefWeakBisimilar(g1, g2); got != want {
			t.Errorf("WeakBisimilar engine=%v reference=%v", got, want)
		}
		if got, want := ObservationCongruent(g1, g2), RefObservationCongruent(g1, g2); got != want {
			t.Errorf("ObservationCongruent engine=%v reference=%v", got, want)
		}
		for i, g := range []*lts.Graph{g1, g2} {
			if got, want := NumClassesWeak(g), RefNumClassesWeak(g); got != want {
				t.Errorf("NumClassesWeak(g%d) engine=%d reference=%d", i+1, got, want)
			}
		}
	})
}

// TestFuzzSeedsRoundTrip checks that the seed encoding keeps each law pair:
// every pair that fits decodes to graphs of the same shape, whose events
// are renamed injectively, so the pair keeps its verdicts.
func TestFuzzSeedsRoundTrip(t *testing.T) {
	seeds := 0
	for _, pair := range diffPairs {
		g1, g2 := graphOf(t, pair[0]), graphOf(t, pair[1])
		data, ok := encodeGraphPair(g1, g2)
		if !ok {
			continue
		}
		seeds++
		d1, d2 := decodeGraphPair(data)
		if d1.NumTransitions() != g1.NumTransitions() || d2.NumTransitions() != g2.NumTransitions() ||
			RefWeakBisimilar(d1, d2) != RefWeakBisimilar(g1, g2) ||
			RefObservationCongruent(d1, d2) != RefObservationCongruent(g1, g2) {
			t.Errorf("%q vs %q: decoded seed differs from the law pair", pair[0], pair[1])
		}
	}
	if seeds < len(diffPairs)/2 {
		t.Errorf("only %d of %d law pairs encode as seeds", seeds, len(diffPairs))
	}
}
