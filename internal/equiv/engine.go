package equiv

// The integer equivalence engine. The reference checker (reference.go)
// saturates weak transitions into per-state map[string][]int and re-renders
// string signatures for every state on every refinement round; this engine
// replaces both hot paths:
//
//   - Labels are interned into dense lts.LabelID integers through one
//     lts.LabelTable shared by both graphs, and edges are walked through a
//     CSR (offset/label/target array) export instead of []Edge slices.
//
//   - The per-state ε-closure is replaced by one Tarjan condensation of the
//     τ-subgraph. All states of one τ-SCC have the same ε-closure, hence
//     identical weak transition rows, hence they are weakly bisimilar — so
//     both the saturated weak relation and the partition refinement operate
//     on τ-SCCs, not states. Tarjan emits SCCs in reverse topological order
//     of the condensation, so closures and saturated rows are built by one
//     successors-first propagation pass each (no per-state graph searches).
//
//   - Saturation can be quadratic (tens of thousands of τ-SCCs saturate
//     into millions of pairs), so it runs on a smaller graph: the τ-SCC
//     condensation is first quotiented by branching bisimilarity, which is
//     finer than weak bisimilarity and needs no saturation
//     (branchingQuotient, Blom–Orzan signature refinement in one
//     successors-first sweep per round). The quotient is weakly bisimilar
//     to the input, so the τ-condensation, closures, saturation and
//     refinement below run unchanged on it, and each state reaches its
//     class through its quotient node.
//
//   - The saturated weak relation is stored in CSR form as packed
//     (labelID, targetSCC) uint64 pairs, and refinement signatures are
//     64-bit hashes of the sorted, deduplicated (labelID, targetBlock)
//     pairs, computed into reusable per-worker buffers across GOMAXPROCS
//     workers (the worker-pool idiom of the lts exploration core).
//     Refinement never merges blocks — each signature includes the node's
//     current block — so stabilization is detected by block count alone and
//     per-round renumbering cannot cause spurious extra rounds.

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lts"
)

// Stats reports the equivalence engine's work for one check: graph and
// condensation sizes, the size of the saturated weak relation, refinement
// effort, and wall time per phase. It is exposed through compose.Verify,
// `verify -stats` and the pgd /metrics page.
type Stats struct {
	// States and Transitions measure the (combined) input graph.
	States      int `json:"states"`
	Transitions int `json:"transitions"`
	// Labels is the number of distinct interned labels.
	Labels int `json:"labels"`
	// TauSCCs is the number of τ-SCCs of the branching-bisimulation
	// quotient — the node count the weak refinement actually runs on.
	TauSCCs int `json:"tauSccs"`
	// SaturationEdges is the number of (label, target) entries of the
	// quotient's saturated weak relation, ε rows included.
	SaturationEdges int `json:"saturationEdges"`
	// RefinementRounds is the number of signature rounds until the block
	// count stabilized.
	RefinementRounds int `json:"refinementRounds"`
	// Blocks is the final number of equivalence classes.
	Blocks int `json:"blocks"`
	// SaturateNanos and RefineNanos are wall clock per phase (saturation
	// includes interning, the CSR export, the branching pre-pass and the
	// SCC condensations).
	SaturateNanos int64 `json:"saturateNanos"`
	RefineNanos   int64 `json:"refineNanos"`
}

// weakEngine is the reduced, saturated, condensed and refined form of one
// graph or of the disjoint union of two graphs.
type weakEngine struct {
	table *lts.LabelTable
	// sccOf maps each combined state to the τ-SCC of its branching quotient
	// node; SCC ids are in Tarjan emission order (reverse topological over
	// the quotient's τ-condensation).
	sccOf []int32
	// reach[c] is the sorted set of SCCs τ-reachable from c, including c —
	// the shared ε-closure of every member state.
	reach [][]int32
	// block is the refined partition over SCCs; blocks is its class count.
	block  []int32
	blocks int
	stats  Stats
}

// stateBlock returns the equivalence class of a combined state.
func (e *weakEngine) stateBlock(s int) int32 { return e.block[e.sccOf[s]] }

// newWeakEngine reduces, saturates and refines g1 (and g2, unless nil)
// under weak bisimilarity. States of g2 follow g1's in the combined
// numbering.
func newWeakEngine(g1, g2 *lts.Graph) *weakEngine {
	t0 := time.Now()
	e := &weakEngine{table: lts.NewLabelTable()}
	epsID := e.table.InternKey(epsKey)

	off, labs, to, isTau := combinedCSR(e.table, epsID, g1, g2)
	n := len(off) - 1
	e.stats.States = n
	e.stats.Transitions = len(to)
	e.stats.Labels = e.table.Len()

	// Pre-pass — quotient the combined graph by branching bisimilarity,
	// which is finer than weak bisimilarity and needs no saturation. The
	// weak passes below run on the quotient; every state reaches them
	// through its τ-SCC's quotient node.
	scc0, sccCount0 := tarjanTau(n, off, labs, to, isTau)
	nodeOf, n, off, labs, to := branchingQuotient(scc0, sccCount0, off, labs, to, isTau)

	// τ-SCC condensation of the quotient.
	sccOf, sccCount := tarjanTau(n, off, labs, to, isTau)
	e.sccOf = make([]int32, len(scc0))
	for s, c := range scc0 {
		e.sccOf[s] = sccOf[nodeOf[c]]
	}
	e.stats.TauSCCs = sccCount
	memberOff, members := groupBy(sccOf, sccCount)

	// Condensed τ adjacency, deduplicated per source SCC.
	tauAdj := make([][]int32, sccCount)
	for s := 0; s < n; s++ {
		c := sccOf[s]
		for i := off[s]; i < off[s+1]; i++ {
			if !isTau[labs[i]] {
				continue
			}
			if d := sccOf[to[i]]; d != c {
				tauAdj[c] = append(tauAdj[c], d)
			}
		}
	}
	for c := range tauAdj {
		sortDedup32(&tauAdj[c])
	}

	// Pass 1 — ε-closures over the condensation, successors first: SCC ids
	// are in reverse topological order, so every τ-successor's closure is
	// final before it is merged.
	e.reach = make([][]int32, sccCount)
	for c := 0; c < sccCount; c++ {
		r := []int32{int32(c)}
		for _, d := range tauAdj[c] {
			r = mergeSorted32(r, e.reach[d])
		}
		e.reach[c] = r
	}

	// Pass 2 — saturated observable rows, same order: a weak move
	// c =a=> f exists iff some d ∈ reach[c] has a member with an observable
	// a-edge into a state whose closure contains f. Propagating finished
	// successor rows along the condensed τ edges makes each row a merge of
	// its local contribution and its successors' rows.
	weak := make([][]uint64, sccCount)
	var step []uint64
	for c := 0; c < sccCount; c++ {
		// Local (label, target-SCC) steps of c's own members.
		step = step[:0]
		for _, s := range members[memberOff[c]:memberOff[c+1]] {
			for i := off[s]; i < off[s+1]; i++ {
				if isTau[labs[i]] {
					continue
				}
				step = append(step, packPair(labs[i], sccOf[to[i]]))
			}
		}
		sortDedup64(&step)
		// Expand each step target by its ε-closure.
		var local []uint64
		for _, p := range step {
			lab := lts.LabelID(p >> 32)
			for _, f := range e.reach[int32(uint32(p))] {
				local = append(local, packPair(lab, f))
			}
		}
		sortDedup64(&local)
		for _, d := range tauAdj[c] {
			local = mergeSorted64(local, weak[d])
		}
		weak[c] = local
	}

	// Flatten into the final weak CSR: ε row (reach, self included) plus
	// the saturated observable rows.
	wOff := make([]int, sccCount+1)
	total := 0
	for c := 0; c < sccCount; c++ {
		total += len(e.reach[c]) + len(weak[c])
	}
	wPairs := make([]uint64, 0, total)
	for c := 0; c < sccCount; c++ {
		for _, f := range e.reach[c] {
			wPairs = append(wPairs, packPair(epsID, f))
		}
		wPairs = append(wPairs, weak[c]...)
		wOff[c+1] = len(wPairs)
	}
	e.stats.SaturationEdges = len(wPairs)
	e.stats.SaturateNanos = time.Since(t0).Nanoseconds()

	t1 := time.Now()
	e.block, e.blocks, e.stats.RefinementRounds = refinePacked(sccCount, wOff, wPairs, 0)
	e.stats.Blocks = e.blocks
	e.stats.RefineNanos = time.Since(t1).Nanoseconds()
	return e
}

// combinedCSR flattens g1 and g2 (unless nil) into one CSR over the
// shared label ids of table, g2's states following g1's. isTau marks the
// internal label ids; the ε pseudo-label epsID is not one.
func combinedCSR(table *lts.LabelTable, epsID lts.LabelID, g1, g2 *lts.Graph) (off []int32, labs []lts.LabelID, to []int32, isTau []bool) {
	c1 := g1.ExportCSR(table)
	n1, n2 := c1.NumStates, 0
	var c2 *lts.CSR
	if g2 != nil {
		c2 = g2.ExportCSR(table)
		n2 = c2.NumStates
	}
	n := n1 + n2
	m := len(c1.To)
	if c2 != nil {
		m += len(c2.To)
	}
	off = make([]int32, n+1)
	labs = make([]lts.LabelID, m)
	to = make([]int32, m)
	copy(off, c1.Off)
	copy(labs, c1.Labels)
	copy(to, c1.To)
	if c2 != nil {
		base := int32(len(c1.To))
		for s := 0; s <= n2; s++ {
			off[n1+s] = base + c2.Off[s]
		}
		copy(labs[base:], c2.Labels)
		for i, t := range c2.To {
			to[int(base)+i] = t + int32(n1)
		}
	}
	isTau = make([]bool, table.Len())
	for id := range isTau {
		isTau[id] = !table.Observable(lts.LabelID(id))
	}
	isTau[epsID] = false // pseudo-label, never appears in the state CSR
	return off, labs, to, isTau
}

// branchingQuotient quotients a state-level CSR, whose τ-SCCs are sccOf,
// by branching bisimilarity. It returns the quotient node of every SCC and
// the quotient's node count and CSR, with one edge per distinct (label,
// target node) pair of the members' moves and the inert τ moves (inside
// one node) dropped.
//
// The partition is Blom–Orzan signature refinement over the τ-SCC
// condensation (the members of a τ-SCC are branching bisimilar). Under a
// partition B the signature of an SCC c is
//
//	sig(c) = {(a, B(d)) : c -a-> d, not (a = τ and B(d) = B(c))}
//	       ∪ ⋃{sig(d) : c -τ-> d, B(d) = B(c)}
//
// and since SCC ids are in reverse topological order every round is one
// successors-first sweep. As in refinePacked, a node's hash includes its
// current block, so blocks never merge and a round that splits none ends
// the refinement.
func branchingQuotient(sccOf []int32, sccCount int, off []int32, labs []lts.LabelID, to []int32, isTau []bool) ([]int32, int, []int32, []lts.LabelID, []int32) {
	// Condensed moves per SCC: deduplicated packed (label, target SCC)
	// pairs, τ moves inside the SCC dropped.
	memberOff, members := groupBy(sccOf, sccCount)
	cOff := make([]int, sccCount+1)
	cPairs := make([]uint64, 0, len(to))
	for c := 0; c < sccCount; c++ {
		start := len(cPairs)
		for _, s := range members[memberOff[c]:memberOff[c+1]] {
			for i := off[s]; i < off[s+1]; i++ {
				if d := sccOf[to[i]]; !isTau[labs[i]] || d != int32(c) {
					cPairs = append(cPairs, packPair(labs[i], d))
				}
			}
		}
		row := cPairs[start:]
		sortDedup64(&row)
		cPairs = cPairs[:start+len(row)]
		cOff[c+1] = len(cPairs)
	}
	block := make([]int32, sccCount)
	// lift maps a (label, target SCC) pair to (label, target block); ok is
	// false for an inert τ move of a node in block b.
	lift := func(p uint64, b int32) (q uint64, ok bool) {
		d := block[int32(uint32(p))]
		return p>>32<<32 | uint64(uint32(d)), !isTau[p>>32] || d != b
	}
	newBlock := make([]int32, sccCount)
	blocks := 1
	sigOff := make([]int, sccCount+1)
	var sigs, buf []uint64
	for {
		sigs = sigs[:0]
		next := make(map[uint64]int32, 2*blocks)
		for c := 0; c < sccCount; c++ {
			b := block[c]
			buf = buf[:0]
			for _, p := range cPairs[cOff[c]:cOff[c+1]] {
				if q, ok := lift(p, b); ok {
					buf = append(buf, q)
				} else {
					d := int32(uint32(p))
					buf = append(buf, sigs[sigOff[d]:sigOff[d+1]]...)
				}
			}
			sortDedup64(&buf)
			sigs = append(sigs, buf...)
			sigOff[c+1] = len(sigs)
			h := hashSorted(b, buf)
			id, ok := next[h]
			if !ok {
				id = int32(len(next))
				next[h] = id
			}
			newBlock[c] = id
		}
		if len(next) == blocks {
			break
		}
		block, newBlock = newBlock, block
		blocks = len(next)
	}

	// The quotient CSR: per block, its SCCs' non-inert moves lifted to
	// blocks and deduplicated.
	memberOff, members = groupBy(block, blocks)
	qOff := make([]int32, blocks+1)
	var qLabs []lts.LabelID
	var qTo []int32
	for b := 0; b < blocks; b++ {
		buf = buf[:0]
		for _, c := range members[memberOff[b]:memberOff[b+1]] {
			for _, p := range cPairs[cOff[c]:cOff[c+1]] {
				if q, ok := lift(p, int32(b)); ok {
					buf = append(buf, q)
				}
			}
		}
		sortDedup64(&buf)
		for _, p := range buf {
			qLabs = append(qLabs, lts.LabelID(p>>32))
			qTo = append(qTo, int32(uint32(p)))
		}
		qOff[b+1] = int32(len(qTo))
	}
	return block, blocks, qOff, qLabs, qTo
}

// groupBy lists the members of every class of a dense class assignment
// (counting sort): class c's members are members[off[c]:off[c+1]], in
// ascending order.
func groupBy(classOf []int32, classes int) (off, members []int32) {
	off = make([]int32, classes+1)
	for _, c := range classOf {
		off[c+1]++
	}
	for c := 0; c < classes; c++ {
		off[c+1] += off[c]
	}
	members = make([]int32, len(classOf))
	cursor := append([]int32(nil), off[:classes]...)
	for s, c := range classOf {
		members[cursor[c]] = int32(s)
		cursor[c]++
	}
	return off, members
}

// packPair packs a label id and a target index into one uint64 signature
// element (label high, target low).
func packPair(lab lts.LabelID, tgt int32) uint64 {
	return uint64(uint32(lab))<<32 | uint64(uint32(tgt))
}

// tarjanTau condenses the subgraph of τ-labelled edges (iteratively — state
// spaces reach 10^5 states and recursion would overflow the stack). SCC ids
// are assigned in emission order, which for Tarjan's algorithm is reverse
// topological order of the condensation: every τ-successor SCC of c has an
// id smaller than c's.
func tarjanTau(n int, off []int32, labs []lts.LabelID, to []int32, isTau []bool) ([]int32, int) {
	sccOf := make([]int32, n)
	for i := range sccOf {
		sccOf[i] = -1
	}
	index := make([]int32, n) // 0 = unvisited, else order+1
	low := make([]int32, n)
	onStack := make([]bool, n)
	var tarjanStack []int32
	type frame struct {
		v  int32
		ei int32
	}
	var frames []frame
	var order int32
	sccCount := 0

	for root := 0; root < n; root++ {
		if index[root] != 0 {
			continue
		}
		order++
		index[root], low[root] = order, order
		tarjanStack = append(tarjanStack, int32(root))
		onStack[root] = true
		frames = append(frames[:0], frame{int32(root), off[root]})
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			descended := false
			for f.ei < off[v+1] {
				i := f.ei
				f.ei++
				if !isTau[labs[i]] {
					continue
				}
				w := to[i]
				if index[w] == 0 {
					order++
					index[w], low[w] = order, order
					tarjanStack = append(tarjanStack, w)
					onStack[w] = true
					frames = append(frames, frame{w, off[w]})
					descended = true
					break
				}
				if onStack[w] && low[w] < low[v] {
					low[v] = low[w]
				}
			}
			if descended {
				continue
			}
			if low[v] == index[v] {
				for {
					w := tarjanStack[len(tarjanStack)-1]
					tarjanStack = tarjanStack[:len(tarjanStack)-1]
					onStack[w] = false
					sccOf[w] = int32(sccCount)
					if w == v {
						break
					}
				}
				sccCount++
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				if p := frames[len(frames)-1].v; low[v] < low[p] {
					low[p] = low[v]
				}
			}
		}
	}
	return sccOf, sccCount
}

// sortDedup32 sorts *xs and removes duplicates in place.
func sortDedup32(xs *[]int32) {
	s := *xs
	if len(s) < 2 {
		return
	}
	slices.Sort(s)
	*xs = slices.Compact(s)
}

// sortDedup64 sorts *xs and removes duplicates in place.
func sortDedup64(xs *[]uint64) {
	s := *xs
	if len(s) < 2 {
		return
	}
	slices.Sort(s)
	*xs = slices.Compact(s)
}

// mergeSorted32 merges two sorted duplicate-free slices into a new sorted
// duplicate-free slice. Either input may be returned unchanged when the
// other is empty; inputs are never modified.
func mergeSorted32(a, b []int32) []int32 {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// mergeSorted64 is mergeSorted32 over packed pairs.
func mergeSorted64(a, b []uint64) []uint64 {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]uint64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// mix64 is the SplitMix64 finalizer — the per-element mixer of the hashed
// signatures.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// sigChunk is the unit of work a refinement worker claims at a time.
const sigChunk = 1024

// refineParallelMin is the node count below which per-round signature
// computation stays serial (goroutine fan-out costs more than it saves).
const refineParallelMin = 4096

// refinePacked runs hashed signature refinement over a node-level CSR whose
// entries are packed (labelID, target-node) pairs: nodes are τ-SCCs for the
// weak relation and plain states for the strong one. It returns the stable
// partition, its class count and the number of rounds. workers <= 0 selects
// GOMAXPROCS.
//
// Each round hashes, per node, the node's current block plus the sorted
// deduplicated set of (labelID, targetBlock) pairs. Because the signature
// includes the current block, refinement never merges blocks; the partition
// is stable exactly when the block count stops growing, so renumbering
// between rounds cannot cause spurious extra rounds.
func refinePacked(nodes int, off []int, pairs []uint64, workers int) ([]int32, int, int) {
	block := make([]int32, nodes)
	if nodes == 0 {
		return block, 0, 0
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sigs := make([]uint64, nodes)
	newBlock := make([]int32, nodes)
	nBlocks := 1
	rounds := 0
	for {
		rounds++
		computeSigs(nodes, off, pairs, block, sigs, workers)
		next := make(map[uint64]int32, 2*nBlocks)
		var count int32
		for v := 0; v < nodes; v++ {
			id, ok := next[sigs[v]]
			if !ok {
				id = count
				next[sigs[v]] = id
				count++
			}
			newBlock[v] = id
		}
		if int(count) == nBlocks {
			// No block split: the partition is stable (and identical to the
			// previous round's, only possibly renumbered).
			return block, nBlocks, rounds
		}
		copy(block, newBlock)
		nBlocks = int(count)
	}
}

// computeSigs fills sigs[v] for every node, fanning out across workers for
// large node counts. Workers claim fixed-size chunks through a shared
// atomic cursor (the lts exploration core's pool idiom) and reuse one
// scratch pair buffer each.
func computeSigs(nodes int, off []int, pairs []uint64, block []int32, sigs []uint64, workers int) {
	if w := (nodes + sigChunk - 1) / sigChunk; workers > w {
		workers = w
	}
	if nodes < refineParallelMin || workers <= 1 {
		buf := make([]uint64, 0, 64)
		for v := 0; v < nodes; v++ {
			sigs[v], buf = sigOne(v, off, pairs, block, buf)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]uint64, 0, 64)
			for {
				lo := (int(cursor.Add(1)) - 1) * sigChunk
				if lo >= nodes {
					return
				}
				hi := lo + sigChunk
				if hi > nodes {
					hi = nodes
				}
				for v := lo; v < hi; v++ {
					sigs[v], buf = sigOne(v, off, pairs, block, buf)
				}
			}
		}()
	}
	wg.Wait()
}

// sigOne hashes one node's signature, reusing buf as scratch; it returns
// the (possibly grown) buffer for the caller to thread through.
func sigOne(v int, off []int, pairs []uint64, block []int32, buf []uint64) (uint64, []uint64) {
	buf = buf[:0]
	for i := off[v]; i < off[v+1]; i++ {
		p := pairs[i]
		buf = append(buf, p>>32<<32|uint64(uint32(block[int32(uint32(p))])))
	}
	slices.Sort(buf)
	return hashSorted(block[v], buf), buf
}

// hashSorted hashes a node's current block plus a sorted signature,
// skipping duplicate (label, block) pairs (set semantics).
func hashSorted(b int32, sig []uint64) uint64 {
	h := mix64(0x9e3779b97f4a7c15 ^ uint64(uint32(b)))
	prev := ^uint64(0)
	for _, p := range sig {
		if p == prev {
			continue
		}
		prev = p
		h = mix64(h ^ mix64(p))
	}
	return h
}
