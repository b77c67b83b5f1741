package compose

import (
	"bytes"
	"encoding/binary"
	"slices"
	"strconv"

	"repro/internal/core"
	"repro/internal/lotos"
)

// Instance-symmetry reduction.
//
// Many services interleave several syntactically identical process instances
// ("B ||| B", a token ring of identical stations, a worker pool). The derived
// protocol entities inherit that shape: at every place the entity root is a
// |||-composition of k columns that are identical up to a renaming of the
// column-private identifiers (message node numbers and process call sites).
// Any permutation of the columns — applied at every place and to every
// in-flight message simultaneously — is then an automorphism of the product
// transition system, so states that differ only by such a permutation are
// interchangeable, and the visited set only needs one representative per
// permutation orbit.
//
// Detection is syntactic and conservative: it either constructs an explicit
// identifier bijection per column (a witness that the permutation really is
// an automorphism) or reports no symmetry. Soundness rests on the checks
// performed here, not on any assumption about how the spec was written.
type symmetry struct {
	// k is the number of interchangeable columns.
	k int
	// rename maps each column's private identifiers into column 0's
	// namespace: rename[j][id] is the column-0 counterpart of the column-j
	// identifier id. rename[0] is nil (the identity).
	rename []map[int]int
	// colOf gives the owning column of every column-private identifier, at
	// every place. Identifiers absent from the map are shared (process
	// definition bodies, tags) and rename to themselves.
	colOf map[int]int
}

// interleaveSpine returns the maximal right-comb spine of |||-compositions
// rooted at e: [L, spine(R)...] for e = L ||| R, else [e]. The parser builds
// ||| right-associatively, so the spine recovers the source-level operand
// list (possibly extended by the last operand's own internal |||).
func interleaveSpine(e lotos.Expr) []lotos.Expr {
	var out []lotos.Expr
	for {
		p, ok := e.(*lotos.Parallel)
		if !ok || p.Kind != lotos.ParInterleave {
			return append(out, e)
		}
		out = append(out, p.L)
		e = p.R
	}
}

// splitColumns cuts e into exactly k columns along the right comb: the first
// k-1 spine elements and the remaining subtree. Returns nil when the comb is
// too shallow.
func splitColumns(e lotos.Expr, k int) []lotos.Expr {
	parts := make([]lotos.Expr, 0, k)
	for j := 0; j < k-1; j++ {
		p, ok := e.(*lotos.Parallel)
		if !ok || p.Kind != lotos.ParInterleave {
			return nil
		}
		parts = append(parts, p.L)
		e = p.R
	}
	return append(parts, e)
}

// detectSymmetry looks for interchangeable ||| columns across all entities of
// a system. It tries every column count from the widest cut every place
// supports down to 2 and returns the first one whose columns match at every
// place under one global identifier bijection, or nil.
func detectSymmetry(places []int, entities map[int]*lotos.Spec) *symmetry {
	maxK := 0
	for i, p := range places {
		arity := len(interleaveSpine(entities[p].Root.Expr))
		if i == 0 || arity < maxK {
			maxK = arity
		}
	}
	for k := maxK; k >= 2; k-- {
		if sym := trySymmetry(places, entities, k); sym != nil {
			return sym
		}
	}
	return nil
}

func trySymmetry(places []int, entities map[int]*lotos.Spec, k int) *symmetry {
	cols := make([][]lotos.Expr, len(places))
	for i, p := range places {
		cols[i] = splitColumns(entities[p].Root.Expr, k)
		if cols[i] == nil {
			return nil
		}
	}
	sym := &symmetry{k: k, rename: make([]map[int]int, k), colOf: map[int]int{}}
	// Build one global bijection per column j >= 1 by structural matching of
	// column j against column 0 simultaneously at every place: the SAME
	// renaming must explain every place, or the permutation would desynchronize
	// the message traffic between places.
	for j := 1; j < k; j++ {
		m := &renameMatcher{fwd: map[int]int{}, rev: map[int]int{}}
		for i := range places {
			if !matchExpr(cols[i][j], cols[i][0], m) {
				return nil
			}
		}
		sym.rename[j] = m.fwd
	}
	// Column ownership: every renameable identifier occurring in a column
	// subtree belongs to that column, consistently across places. An
	// identifier claimed by two different columns (or by a column and a
	// shared process-definition body) would make the permutation ill-defined.
	ok := true
	for i, p := range places {
		for j, col := range cols[i] {
			j := j
			collectRenameIDs(col, func(id int) {
				if prev, seen := sym.colOf[id]; seen && prev != j {
					ok = false
				}
				sym.colOf[id] = j
			})
		}
		_ = p
	}
	if !ok {
		return nil
	}
	shared := map[int]bool{}
	for _, p := range places {
		collectDefIDs(entities[p].Root, func(id int) { shared[id] = true })
	}
	// Validate the bijections against ownership: every non-trivially renamed
	// identifier must be private to exactly the column the bijection says,
	// and must not also occur in a shared definition body.
	for j := 1; j < k; j++ {
		for x, y := range sym.rename[j] {
			if x == y {
				continue
			}
			if sym.colOf[x] != j || sym.colOf[y] != 0 || shared[x] || shared[y] {
				return nil
			}
		}
	}
	return sym
}

// renameMatcher accumulates the identifier bijection while matching one
// column against column 0 across all places.
type renameMatcher struct {
	fwd map[int]int // column-j id -> column-0 id
	rev map[int]int // column-0 id -> column-j id
}

func (m *renameMatcher) pair(x, y int) bool {
	if to, ok := m.fwd[x]; ok {
		return to == y
	}
	if from, ok := m.rev[y]; ok {
		return from == x
	}
	m.fwd[x] = y
	m.rev[y] = x
	return true
}

// matchExpr structurally matches a (column j) against b (column 0), growing
// the identifier bijection. Only identifiers that contribute to state and
// message identity are mapped: message node numbers and process call-site
// ids (whose numbers enter occurrence paths, see lts.Env.Instantiate).
func matchExpr(a, b lotos.Expr, m *renameMatcher) bool {
	switch x := a.(type) {
	case *lotos.Stop:
		_, ok := b.(*lotos.Stop)
		return ok
	case *lotos.Exit:
		_, ok := b.(*lotos.Exit)
		return ok
	case *lotos.Empty:
		_, ok := b.(*lotos.Empty)
		return ok
	case *lotos.Prefix:
		y, ok := b.(*lotos.Prefix)
		return ok && matchEvent(x.Ev, y.Ev, m) && matchExpr(x.Cont, y.Cont, m)
	case *lotos.Choice:
		y, ok := b.(*lotos.Choice)
		return ok && matchExpr(x.L, y.L, m) && matchExpr(x.R, y.R, m)
	case *lotos.Parallel:
		y, ok := b.(*lotos.Parallel)
		return ok && x.Kind == y.Kind && sameStrings(x.Sync, y.Sync) &&
			matchExpr(x.L, y.L, m) && matchExpr(x.R, y.R, m)
	case *lotos.Enable:
		y, ok := b.(*lotos.Enable)
		return ok && matchExpr(x.L, y.L, m) && matchExpr(x.R, y.R, m)
	case *lotos.Disable:
		y, ok := b.(*lotos.Disable)
		return ok && matchExpr(x.L, y.L, m) && matchExpr(x.R, y.R, m)
	case *lotos.Hide:
		y, ok := b.(*lotos.Hide)
		return ok && sameStrings(x.Gates, y.Gates) && matchExpr(x.Body, y.Body, m)
	case *lotos.ProcRef:
		y, ok := b.(*lotos.ProcRef)
		if !ok || x.Name != y.Name || x.Occ != y.Occ {
			return false
		}
		// Same name in the same definition block resolves to the same
		// definition; when resolution already ran, require it explicitly.
		if x.Def != nil && y.Def != nil && x.Def != y.Def {
			return false
		}
		return m.pair(x.ID(), y.ID())
	}
	return false
}

// matchEvent matches two events. Peer places, service names/places, tags and
// static occurrence parameters must be exactly equal (they are global); the
// message node numbers are mapped through the bijection and must agree on
// flush semantics, which are a function of the node number.
func matchEvent(a, b lotos.Event, m *renameMatcher) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case lotos.EvInternal:
		return true
	case lotos.EvService:
		return a.Name == b.Name && a.Place == b.Place
	default: // EvSend, EvRecv
		if a.Place != b.Place || a.Tag != b.Tag || a.Occ != b.Occ {
			return false
		}
		if a.Tag == "" && core.FlushingMsgID(a.Node) != core.FlushingMsgID(b.Node) {
			return false
		}
		return m.pair(a.Node, b.Node)
	}
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// collectRenameIDs visits every renameable identifier in an expression: the
// node numbers of untagged AND tagged message events (both enter in-flight
// message identity) and process call-site ids.
func collectRenameIDs(e lotos.Expr, fn func(int)) {
	lotos.Walk(e, func(x lotos.Expr) {
		switch n := x.(type) {
		case *lotos.Prefix:
			if n.Ev.IsMessage() {
				fn(n.Ev.Node)
			}
		case *lotos.ProcRef:
			fn(n.ID())
		}
	})
}

// collectDefIDs visits the renameable identifiers of every process definition
// body (recursively through nested definition blocks) — the shared part of
// the entity text that every column instantiates.
func collectDefIDs(blk *lotos.DefBlock, fn func(int)) {
	for _, pd := range blk.Procs {
		collectRenameIDs(pd.Body.Expr, fn)
		collectDefIDs(pd.Body, fn)
	}
}

// colRenaming maps column col's private identifiers into column 0's
// namespace: lotos.CanonRenamed prints a column's local state through it,
// and classify renames a message with it. Shared identifiers map to
// themselves. mixed is set when an identifier belongs to another column
// (the expression or message mixes columns and has no canonical form).
type colRenaming struct {
	sym   *symmetry
	col   int
	mixed bool
}

// ID maps a message node number or process call-site id.
func (r *colRenaming) ID(id int) int {
	owner, private := r.sym.colOf[id]
	if !private {
		return id
	}
	if owner != r.col {
		r.mixed = true
		return id
	}
	if r.col == 0 {
		return id
	}
	if to, found := r.sym.rename[r.col][id]; found {
		return to
	}
	r.mixed = true
	return id
}

// occIDs calls fn with each all-digit component of an occurrence path (a
// call-site node number; the symbolic "s" is not one) and its offsets,
// scanning the path in place.
func occIDs(occ string, fn func(id, start, end int)) {
	for start := 0; start <= len(occ); start++ {
		end, id := start, 0
		for ; end < len(occ) && occ[end] != '/'; end++ {
			if c := occ[end]; c < '0' || c > '9' || id < 0 {
				id = -1
			} else {
				id = id*10 + int(c-'0')
			}
		}
		// Eighteen digits cannot overflow an int; node numbers are far shorter.
		if id >= 0 && end > start && end-start <= 18 {
			fn(id, start, end)
		}
		start = end
	}
}

// Occ maps every numeric component of an occurrence path (the chain of
// call-site node numbers built by lts.Env.Instantiate) through ID.
// Non-numeric components (the symbolic "s") pass through. Only a renamed
// path allocates.
func (r *colRenaming) Occ(occ string) string {
	if occ == "" || r.col == 0 && len(r.sym.colOf) == 0 {
		return occ
	}
	var out []byte // the renamed path up to occ[done:], once a component changed
	done := 0
	occIDs(occ, func(id, start, end int) {
		if to := r.ID(id); to != id {
			out = strconv.AppendInt(append(out, occ[done:start]...), int64(to), 10)
			done = end
		}
	})
	if out == nil {
		return occ
	}
	return string(append(out, occ[done:]...))
}

// occColumns adds the owning columns of an occurrence path's components to
// the set.
func (sym *symmetry) occColumns(occ string, add func(int)) {
	occIDs(occ, func(id, _, _ int) {
		if c, private := sym.colOf[id]; private {
			add(c)
		}
	})
}

// columnIDsLocked splits a runtime local state into its k column
// sub-expressions and interns each column's renamed canonical form, so two
// columns in the same local configuration (modulo the renaming) get one id.
// The ||| spine persists through every SOS step (transParallel always
// rebuilds the Parallel node), so every reachable local state decomposes; a
// nil result (shape mismatch or column mixing) falls the whole global state
// back to identity keying, which is sound — only the reduction is lost.
// Caller holds s.mu for writing.
func (s *table) columnIDsLocked(e lotos.Expr) []int32 {
	parts := splitColumns(e, s.sym.k)
	if parts == nil {
		return nil
	}
	out := make([]int32, len(parts))
	for j, part := range parts {
		r := colRenaming{sym: s.sym, col: j}
		form := lotos.CanonRenamed(part, &r)
		if r.mixed {
			return nil
		}
		id, ok := s.colIDs[form]
		if !ok {
			id = int32(len(s.colIDs))
			s.colIDs[form] = id
		}
		out[j] = id
	}
	return out
}

// Message classification for canonical keys.
const (
	msgColShared = -1 // touches no column-private identifier
	msgColPoison = -2 // touches several columns: no canonical key exists
)

// msgMeta is the symmetry view of one interned message: the column that owns
// it and the interned id of its column-0 renaming (its column-0
// counterpart; its own id for shared and column-0 messages).
type msgMeta struct {
	col  int32
	norm int32
}

// classify determines which column an in-flight message belongs to — via its
// node number and the call-site components of its occurrence path — and
// renames it into column 0's namespace. A shared, column-0 or mixing message
// is its own renaming.
func (sym *symmetry) classify(m message) (col int32, norm message) {
	c := msgColShared
	mixed := false
	add := func(x int) {
		switch c {
		case msgColShared:
			c = x
		case x:
		default:
			mixed = true
		}
	}
	if x, private := sym.colOf[m.Node]; private {
		add(x)
	}
	sym.occColumns(m.Occ, add)
	if mixed {
		return msgColPoison, m
	}
	if c == msgColShared || c == 0 {
		return int32(c), m
	}
	r := colRenaming{sym: sym, col: c}
	norm = message{Node: r.ID(m.Node), Occ: r.Occ(m.Occ), Tag: m.Tag}
	if r.mixed {
		return msgColPoison, m
	}
	return int32(c), norm
}

// sig returns column c's signature.
func (sc *keyScratch) sig(c int) []byte {
	if c == 0 {
		return sc.sigs[:sc.ends[0]]
	}
	return sc.sigs[sc.ends[c-1]:sc.ends[c]]
}

// appendOrbitKeyLocked appends the orbit key of a global state to dst: the
// state re-encoded with its columns sorted by signature — per-place column
// ids plus the column's queue footprint. Two states in the same permutation
// orbit sort to the same encoding; conversely an equal encoding
// reconstructs the state up to a column permutation, so the key never
// merges states outside one orbit. (Columns with equal signatures
// necessarily have empty queue footprints — a queued message occupies one
// concrete position, which would differ — so sort ties are genuinely
// interchangeable and the key is well defined.)
//
// The key is orbitTag, each place's column ids in canonical order, then for
// each non-empty channel its slot + 1, queue length and, per message, 0 for
// a shared message or its column's canonical rank + 1, and its column-0
// renaming's id, all as uvarints. Like an identity key it is exact: within
// one table a column id stands for one renamed column form and a message id
// for one message, so no hash is involved. The signatures compare by ids,
// so the canonical order follows interning order: tables filled in another
// order may pick other representatives (and count other collapsed orbits),
// but each keys every state of an orbit alike.
//
// Returns ok=false with dst unchanged — fall back to the identity key —
// when any local state fails to decompose or any in-flight message mixes
// columns. Both properties are invariant under column permutation, so
// mixing orbit and identity keys within one exploration cannot merge or
// split an orbit incorrectly. Everything is built in sc, so a key allocates
// nothing beyond dst. Caller holds s.mu (read).
func (s *System) appendOrbitKeyLocked(dst []byte, g gstate, sc *keyScratch) ([]byte, bool) {
	k, n := s.sym.k, len(s.Places)
	cols := sc.cols[:0] // place -> column -> column id
	for idx := 0; idx < n; idx++ {
		c := s.local[idx][g[idx]].symCols
		if c == nil {
			return dst, false
		}
		cols = append(cols, c)
	}
	sc.cols = cols
	for o := n; o < len(g); {
		var q []int32
		q, o = g.queueAt(o)
		for _, mid := range q {
			if s.msgMeta[mid].col == msgColPoison {
				return dst, false
			}
		}
	}
	// Per-column signatures: column ids at every place, then the queue
	// footprint (slot, position, renamed message) of the column's in-flight
	// messages.
	sigs, ends := sc.sigs[:0], sc.ends[:0]
	for c := 0; c < k; c++ {
		for idx := 0; idx < n; idx++ {
			sigs = binary.AppendUvarint(sigs, uint64(cols[idx][c]))
		}
		o := n
		for slot := 0; slot < n*n; slot++ {
			var q []int32
			q, o = g.queueAt(o)
			for pos, mid := range q {
				if meta := &s.msgMeta[mid]; int(meta.col) == c {
					sigs = binary.AppendUvarint(sigs, uint64(slot))
					sigs = binary.AppendUvarint(sigs, uint64(pos))
					sigs = binary.AppendUvarint(sigs, uint64(meta.norm))
				}
			}
		}
		ends = append(ends, len(sigs))
	}
	sc.sigs, sc.ends = sigs, ends
	// Stable insertion sort of the columns by signature: k is small, and
	// ties keep their column order.
	order := sc.order[:0]
	for c := 0; c < k; c++ {
		order = append(order, c)
		for j := c; j > 0 && bytes.Compare(sc.sig(order[j-1]), sc.sig(c)) > 0; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	identity := true
	rank := slices.Grow(sc.rank[:0], k)[:k]
	for pos, c := range order {
		rank[c] = pos
		if c != pos {
			identity = false
		}
	}
	sc.order, sc.rank = order, rank
	if !identity {
		s.orbitsCollapsed.Add(1)
	}
	dst = append(dst, orbitTag)
	for idx := 0; idx < n; idx++ {
		for _, c := range order {
			dst = binary.AppendUvarint(dst, uint64(cols[idx][c]))
		}
	}
	o := n
	for slot := 0; slot < n*n; slot++ {
		var q []int32
		q, o = g.queueAt(o)
		if len(q) == 0 {
			continue
		}
		dst = binary.AppendUvarint(dst, uint64(slot)+1)
		dst = binary.AppendUvarint(dst, uint64(len(q)))
		for _, mid := range q {
			meta := &s.msgMeta[mid]
			col := uint64(0)
			if meta.col != msgColShared {
				col = uint64(rank[meta.col]) + 1
			}
			dst = binary.AppendUvarint(dst, col)
			dst = binary.AppendUvarint(dst, uint64(meta.norm))
		}
	}
	return dst, true
}
