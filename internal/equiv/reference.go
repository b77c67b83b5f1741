package equiv

// The pre-engine equivalence checker, retained verbatim as an executable
// specification: per-state ε-closure searches, weak transition maps of the
// form map[string][]int, and partition refinement over rendered string
// signatures. It is quadratic-ish and allocation-heavy — never call it on a
// hot path. Its sole clients are the differential tests (reference_test.go
// and the corpus-wide sweep in the root package), which assert that the
// integer engine agrees with it verdict for verdict, and the benchmark
// sweeps that measure the engine's speedup against it. Exported Ref* names
// exist because the corpus differential tests must live outside this
// package (internal/compose imports equiv, so equiv's own test files cannot
// build composed graphs).

import (
	"sort"
	"strings"

	"repro/internal/lts"
)

// refSaturated holds the weak transition relation of one graph:
// weak[s][label] = sorted set of states reachable via i* label i*
// (for observable labels), plus weak[s][epsKey] = i* closure (including s).
type refSaturated struct {
	n    int
	weak []map[string][]int
}

// refSaturate computes the weak transition relation of g.
func refSaturate(g *lts.Graph) *refSaturated {
	n := g.NumStates()
	closure := make([][]int, n)
	for s := 0; s < n; s++ {
		closure[s] = epsClosure(g, s)
	}
	sat := &refSaturated{n: n, weak: make([]map[string][]int, n)}
	for s := 0; s < n; s++ {
		m := map[string][]int{}
		m[epsKey] = closure[s]
		// i* a i*: from every state in closure(s), take an observable edge,
		// then close again.
		for _, mid := range closure[s] {
			for _, e := range g.Edges[mid] {
				if e.Label == lts.InternalID {
					continue
				}
				key := g.Alphabet[e.Label].Key()
				m[key] = append(m[key], closure[e.To]...)
			}
		}
		for k := range m {
			m[k] = dedup(m[k])
		}
		sat.weak[s] = m
	}
	return sat
}

func epsClosure(g *lts.Graph, s int) []int {
	visited := map[int]bool{s: true}
	stack := []int{s}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.Edges[cur] {
			if to := int(e.To); e.Label == lts.InternalID && !visited[to] {
				visited[to] = true
				stack = append(stack, to)
			}
		}
	}
	out := make([]int, 0, len(visited))
	for st := range visited {
		out = append(out, st)
	}
	sort.Ints(out)
	return out
}

// RefWeakBisimilar is the reference implementation of WeakBisimilar.
func RefWeakBisimilar(g1, g2 *lts.Graph) bool {
	p := refWeakPartition(g1, g2)
	return p.sameBlock(0, g1.NumStates())
}

// refWeakPartition runs partition refinement over the disjoint union of the
// two graphs, with signatures built from the saturated weak transitions.
// The result assigns every state a block; weakly bisimilar states share a
// block.
func refWeakPartition(g1, g2 *lts.Graph) *refPartition {
	s1 := refSaturate(g1)
	s2 := refSaturate(g2)
	n := s1.n + s2.n
	// Pre-shift the second graph's maps once for speed.
	shifted := make([]map[string][]int, s2.n)
	for i := range shifted {
		shifted[i] = refShift(s2.weak[i], s1.n)
	}
	weakAt := func(s int) map[string][]int {
		if s < s1.n {
			return s1.weak[s]
		}
		return shifted[s-s1.n]
	}

	p := newRefPartition(n)
	for {
		changed := p.refine(weakAt)
		if !changed {
			return p
		}
	}
}

func refShift(m map[string][]int, off int) map[string][]int {
	out := make(map[string][]int, len(m))
	for k, v := range m {
		sv := make([]int, len(v))
		for i, x := range v {
			sv[i] = x + off
		}
		out[k] = sv
	}
	return out
}

// refPartition tracks block membership during refinement.
type refPartition struct {
	block []int
}

func newRefPartition(n int) *refPartition {
	return &refPartition{block: make([]int, n)}
}

func (p *refPartition) sameBlock(a, b int) bool { return p.block[a] == p.block[b] }

// refine splits blocks by transition signature; it returns whether any
// block split.
func (p *refPartition) refine(weakAt func(int) map[string][]int) bool {
	sigs := make([]string, len(p.block))
	for s := range p.block {
		sigs[s] = p.signature(s, weakAt(s))
	}
	next := map[string]int{}
	newBlock := make([]int, len(p.block))
	for s := range p.block {
		key := sigs[s]
		id, ok := next[key]
		if !ok {
			id = len(next)
			next[key] = id
		}
		newBlock[s] = id
	}
	changed := false
	for s := range p.block {
		if newBlock[s] != p.block[s] {
			changed = true
		}
	}
	copy(p.block, newBlock)
	return changed
}

// signature renders the current block plus the set of (label, targetBlock)
// pairs reachable by weak moves.
func (p *refPartition) signature(s int, weak map[string][]int) string {
	var parts []string
	parts = append(parts, "b"+itoa(p.block[s]))
	keys := make([]string, 0, len(weak))
	for k := range weak {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		blocks := map[int]bool{}
		for _, t := range weak[k] {
			blocks[p.block[t]] = true
		}
		bs := make([]int, 0, len(blocks))
		for b := range blocks {
			bs = append(bs, b)
		}
		sort.Ints(bs)
		var sb strings.Builder
		sb.WriteString(k)
		sb.WriteString("->")
		for _, b := range bs {
			sb.WriteString(itoa(b))
			sb.WriteByte(',')
		}
		parts = append(parts, sb.String())
	}
	return strings.Join(parts, ";")
}

func itoa(x int) string {
	var buf [12]byte
	i := len(buf)
	if x == 0 {
		return "0"
	}
	for x > 0 {
		i--
		buf[i] = byte('0' + x%10)
		x /= 10
	}
	return string(buf[i:])
}

// RefObservationCongruent is the reference implementation of
// ObservationCongruent.
func RefObservationCongruent(g1, g2 *lts.Graph) bool {
	p := refWeakPartition(g1, g2)
	off := g1.NumStates()
	if !p.sameBlock(0, off) {
		return false
	}
	return refRootCondition(g1, g2, p, off, false) && refRootCondition(g2, g1, p, off, true)
}

// refRootCondition checks that every initial i-move of a is matched in b by
// a strict weak i-move (at least one internal step). When swapped is true,
// a is the second graph (its states are offset in the partition).
func refRootCondition(a, b *lts.Graph, p *refPartition, off int, swapped bool) bool {
	aIdx := func(s int) int {
		if swapped {
			return s + off
		}
		return s
	}
	bIdx := func(s int) int {
		if swapped {
			return s
		}
		return s + off
	}
	// Strict weak internal successors of b's root: one i step then i*.
	var bTargets []int
	for _, e := range b.Edges[0] {
		if e.Label == lts.InternalID {
			bTargets = append(bTargets, epsClosure(b, int(e.To))...)
		}
	}
	bTargets = dedup(bTargets)
	for _, e := range a.Edges[0] {
		if e.Label != lts.InternalID {
			continue
		}
		matched := false
		for _, t := range bTargets {
			if p.sameBlock(aIdx(int(e.To)), bIdx(t)) {
				matched = true
				break
			}
		}
		if !matched {
			return false
		}
	}
	return true
}

// RefStrongBisimilar is the reference implementation of StrongBisimilar.
func RefStrongBisimilar(g1, g2 *lts.Graph) bool {
	n1 := g1.NumStates()
	strongAt := func(s int) map[string][]int {
		var g *lts.Graph
		off := 0
		if s < n1 {
			g = g1
		} else {
			g = g2
			off = n1
			s -= n1
		}
		m := map[string][]int{}
		for _, e := range g.Edges[s] {
			key := g.Alphabet[e.Label].Key()
			m[key] = append(m[key], int(e.To)+off)
		}
		for k := range m {
			m[k] = dedup(m[k])
		}
		return m
	}
	p := newRefPartition(n1 + g2.NumStates())
	for p.refine(strongAt) {
	}
	return p.sameBlock(0, n1)
}

// refWeakPartitionSingle refines one graph under weak bisimilarity.
func refWeakPartitionSingle(g *lts.Graph) *refPartition {
	sat := refSaturate(g)
	p := newRefPartition(g.NumStates())
	weakAt := func(s int) map[string][]int { return sat.weak[s] }
	for p.refine(weakAt) {
	}
	return p
}

// RefNumClassesWeak is the reference implementation of NumClassesWeak.
func RefNumClassesWeak(g *lts.Graph) int {
	p := refWeakPartitionSingle(g)
	set := map[int]bool{}
	for _, b := range p.block {
		set[b] = true
	}
	return len(set)
}

// RefQuotientWeak is the reference implementation of QuotientWeak, kept for
// the quotient benchmarks (the reference partition drives the same graph
// construction as the engine's, so timing differences isolate the
// partition-refinement cost).
func RefQuotientWeak(g *lts.Graph) *lts.Graph {
	p := refWeakPartitionSingle(g)
	blockOf := func(s int) int32 { return int32(p.block[s]) }
	q, _ := buildQuotient(g, blockOf)
	return q
}

// dedup returns a sorted, duplicate-free version of xs. It never modifies
// the input: the reference checker passes its shared ε-closure slices, and
// sorting or compacting through their backing arrays would corrupt them.
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
