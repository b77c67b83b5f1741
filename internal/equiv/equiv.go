// Package equiv implements the behavioural equivalences the paper's
// correctness argument (Section 5) is stated in: weak bisimulation
// (observational equivalence), the root condition that strengthens it to
// observation congruence, strong bisimulation (used to validate the
// algebraic laws of Annex A), and bounded weak-trace equivalence as the
// fallback for state spaces that cannot be explored to closure.
//
// All checks operate on the finite (possibly truncated) transition graphs
// produced by internal/lts. They run on the integer engine of engine.go
// (interned labels, τ-SCC saturation, hashed partition refinement); the
// original map/string checker is retained in reference.go as the executable
// specification the differential tests compare against.
package equiv

import (
	"sort"

	"repro/internal/lts"
)

// epsKey is the pseudo-label used for weak internal moves in saturated
// graphs. It cannot collide with lts label keys ("\x01i"/"\x01d"/gates).
const epsKey = "\x02eps"

// WeakBisimilar reports whether the initial states of g1 and g2 are weakly
// bisimilar (observationally equivalent, "≈" without the congruence root
// condition). Successful termination δ is treated as observable, as in
// LOTOS. The graphs must be fully explored; calling this on truncated
// graphs gives an answer for the truncated systems only.
func WeakBisimilar(g1, g2 *lts.Graph) bool {
	ok, _ := WeakBisimilarStats(g1, g2)
	return ok
}

// WeakBisimilarStats is WeakBisimilar plus the engine's work counters.
func WeakBisimilarStats(g1, g2 *lts.Graph) (bool, Stats) {
	e := newWeakEngine(g1, g2)
	return e.stateBlock(0) == e.stateBlock(g1.NumStates()), e.stats
}

// ObservationCongruent reports whether the initial states of g1 and g2 are
// observation congruent ("≈" of the paper, written B1 = B2 in Annex A):
// weakly bisimilar AND every initial internal move of one side is matched by
// at least one internal move (i then i*) of the other into a weakly
// bisimilar state. The root condition distinguishes e.g. "B" from "i; B".
func ObservationCongruent(g1, g2 *lts.Graph) bool {
	e := newWeakEngine(g1, g2)
	off := g1.NumStates()
	if e.stateBlock(0) != e.stateBlock(off) {
		return false
	}
	return e.rootMatched(g1, 0, g2, off) && e.rootMatched(g2, off, g1, 0)
}

// rootMatched checks that every initial i-move of a (at combined offset
// aOff) is matched in b by a strict weak i-move (at least one internal
// step) into the same equivalence class. The ε-closures needed are read off
// the engine's τ-SCC condensation.
func (e *weakEngine) rootMatched(a *lts.Graph, aOff int, b *lts.Graph, bOff int) bool {
	var bBlocks map[int32]struct{}
	for _, ed := range a.Edges[0] {
		if ed.Label.Kind != lts.LInternal {
			continue
		}
		if bBlocks == nil {
			// Classes reachable from b's root by one i step then i*.
			bBlocks = map[int32]struct{}{}
			for _, be := range b.Edges[0] {
				if be.Label.Kind != lts.LInternal {
					continue
				}
				for _, d := range e.reach[e.sccOf[bOff+be.To]] {
					bBlocks[e.block[d]] = struct{}{}
				}
			}
		}
		if _, ok := bBlocks[e.stateBlock(aOff+ed.To)]; !ok {
			return false
		}
	}
	return true
}

// StrongBisimilar reports whether the initial states of g1 and g2 are
// strongly bisimilar (every action, including i, matched one-for-one). It
// runs the hashed refinement directly over the combined state-level CSR —
// no saturation and no τ-condensation, since i is not absorbed.
func StrongBisimilar(g1, g2 *lts.Graph) bool {
	table := lts.NewLabelTable()
	c1 := g1.ExportCSR(table)
	c2 := g2.ExportCSR(table)
	n1, n2 := c1.NumStates, c2.NumStates
	n := n1 + n2
	off := make([]int, n+1)
	pairs := make([]uint64, 0, len(c1.To)+len(c2.To))
	for s := 0; s < n1; s++ {
		for i := c1.Off[s]; i < c1.Off[s+1]; i++ {
			pairs = append(pairs, packPair(c1.Labels[i], c1.To[i]))
		}
		off[s+1] = len(pairs)
	}
	for s := 0; s < n2; s++ {
		for i := c2.Off[s]; i < c2.Off[s+1]; i++ {
			pairs = append(pairs, packPair(c2.Labels[i], c2.To[i]+int32(n1)))
		}
		off[n1+s+1] = len(pairs)
	}
	block, _, _ := refinePacked(n, off, pairs, 0)
	return block[0] == block[n1]
}

// dedup returns a sorted, duplicate-free version of xs. It never modifies
// the input: callers pass aliased views of shared closure slices (the
// reference checker's ε-closures among them), and sorting or compacting
// through the caller's backing array would corrupt them.
func dedup(xs []int) []int {
	if len(xs) < 2 {
		return xs
	}
	out := make([]int, len(xs))
	copy(out, xs)
	sort.Ints(out)
	w := 1
	for _, x := range out[1:] {
		if x != out[w-1] {
			out[w] = x
			w++
		}
	}
	return out[:w]
}

// WeakTraceEquivalent reports whether g1 and g2 have the same weak traces up
// to the given length. It is sound for truncated graphs only as a bounded
// check: traces longer than the exploration depth are not compared.
func WeakTraceEquivalent(g1, g2 *lts.Graph, maxLen int) bool {
	t1 := lts.WeakTraces(g1, maxLen)
	t2 := lts.WeakTraces(g2, maxLen)
	if len(t1) != len(t2) {
		return false
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			return false
		}
	}
	return true
}

// TraceDiff returns example traces present in exactly one of the two
// graphs, up to maxLen and at most limit entries per side, for diagnostics.
func TraceDiff(g1, g2 *lts.Graph, maxLen, limit int) (onlyG1, onlyG2 []string) {
	onlyG1, onlyG2, _, _ = TraceSetDiff(lts.WeakTraces(g1, maxLen), lts.WeakTraces(g2, maxLen), limit)
	return onlyG1, onlyG2
}

// TraceSetDiff compares two trace sets as lts.WeakTraces returns them
// (sorted, duplicate-free). only1 and only2 hold, in order, the first limit
// traces one side has and the other lacks; n1 and n2 count all of them, so
// the sets are equal exactly when both counts are zero.
func TraceSetDiff(t1, t2 []string, limit int) (only1, only2 []string, n1, n2 int) {
	i, j := 0, 0
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
	return only1, only2, n1, n2
}
