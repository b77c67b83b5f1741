package compose

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"slices"
	"strconv"
	"strings"

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

// renameID maps one identifier of column col into column 0's namespace.
// Shared identifiers map to themselves. Sets *ok to false when the
// identifier belongs to a different column (the expression mixes columns and
// cannot be canonicalized).
func (sym *symmetry) renameID(id, col int, ok *bool) int {
	owner, private := sym.colOf[id]
	if !private {
		return id
	}
	if owner != col {
		*ok = false
		return id
	}
	if col == 0 {
		return id
	}
	if to, found := sym.rename[col][id]; found {
		return to
	}
	*ok = false
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

// renameOcc maps every numeric component of an occurrence path (the chain of
// call-site node numbers built by lts.Env.Instantiate) through the column
// renaming. Non-numeric components (the symbolic "s") pass through. Only a
// renamed path allocates.
func (sym *symmetry) renameOcc(occ string, col int, ok *bool) string {
	if occ == "" || col == 0 && len(sym.colOf) == 0 {
		return occ
	}
	var out []byte // the renamed path up to occ[done:], once a component changed
	done := 0
	occIDs(occ, func(id, start, end int) {
		if to := sym.renameID(id, col, ok); to != id {
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

// canonSym renders the column-col expression in the exact shape of
// lotos.Canon with every column-private identifier renamed into column 0's
// namespace, so two columns in the same local configuration (modulo the
// renaming) render identically. Returns ok=false when the expression mixes
// identifiers from several columns.
func (sym *symmetry) canonSym(e lotos.Expr, col int) (string, bool) {
	var b strings.Builder
	ok := true
	sym.writeCanonSym(&b, e, col, &ok)
	return b.String(), ok
}

func (sym *symmetry) writeCanonSym(b *strings.Builder, e lotos.Expr, col int, ok *bool) {
	switch x := e.(type) {
	case *lotos.Stop:
		b.WriteString("0")
	case *lotos.Exit:
		b.WriteString("X")
	case *lotos.Empty:
		b.WriteString("E")
	case *lotos.ProcRef:
		b.WriteString("P(")
		b.WriteString(x.Name)
		b.WriteString("@")
		b.WriteString(strconv.Itoa(sym.renameID(x.ID(), col, ok)))
		b.WriteString("^")
		b.WriteString(sym.renameOcc(x.Occ, col, ok))
		b.WriteString(")")
	case *lotos.Prefix:
		sym.writeEventSym(b, x.Ev, col, ok)
		if x.Ev.Kind == lotos.EvInternal {
			b.WriteString("i")
		}
		b.WriteString(".")
		sym.writeCanonSym(b, x.Cont, col, ok)
	case *lotos.Choice:
		b.WriteString("(")
		sym.writeCanonSym(b, x.L, col, ok)
		b.WriteString("+")
		sym.writeCanonSym(b, x.R, col, ok)
		b.WriteString(")")
	case *lotos.Parallel:
		b.WriteString("(")
		sym.writeCanonSym(b, x.L, col, ok)
		switch x.Kind {
		case lotos.ParInterleave:
			b.WriteString("|||")
		case lotos.ParFull:
			b.WriteString("||")
		default:
			b.WriteString("|[" + lotos.FormatGateSet(x.Sync) + "]|")
		}
		sym.writeCanonSym(b, x.R, col, ok)
		b.WriteString(")")
	case *lotos.Enable:
		b.WriteString("(")
		sym.writeCanonSym(b, x.L, col, ok)
		b.WriteString(">>")
		sym.writeCanonSym(b, x.R, col, ok)
		b.WriteString(")")
	case *lotos.Disable:
		b.WriteString("(")
		sym.writeCanonSym(b, x.L, col, ok)
		b.WriteString("[>")
		sym.writeCanonSym(b, x.R, col, ok)
		b.WriteString(")")
	case *lotos.Hide:
		b.WriteString("hide[" + lotos.FormatGateSet(x.Gates) + "](")
		sym.writeCanonSym(b, x.Body, col, ok)
		b.WriteString(")")
	default:
		*ok = false
	}
}

// writeEventSym renders an event gate exactly as lotos.Event.Gate does,
// with the message node number and occurrence path renamed.
func (sym *symmetry) writeEventSym(b *strings.Builder, ev lotos.Event, col int, ok *bool) {
	switch ev.Kind {
	case lotos.EvService:
		b.WriteString(ev.Name)
		b.WriteString("@")
		b.WriteString(strconv.Itoa(ev.Place))
	case lotos.EvSend, lotos.EvRecv:
		if ev.Kind == lotos.EvSend {
			b.WriteString("s@")
		} else {
			b.WriteString("r@")
		}
		b.WriteString(strconv.Itoa(ev.Place))
		b.WriteString(":")
		if ev.Tag != "" {
			b.WriteString("t")
			b.WriteString(ev.Tag)
		} else {
			b.WriteString(strconv.Itoa(sym.renameID(ev.Node, col, ok)))
			b.WriteString("#")
			b.WriteString(sym.renameOcc(ev.Occ, col, ok))
		}
	}
}

// digest16 truncates a SHA-256 content digest to the 16 bytes of the
// symmetry path's column, message and orbit digests.
func digest16(data []byte) (h [16]byte) {
	sum := sha256.Sum256(data)
	copy(h[:], sum[:16])
	return h
}

// symColsFor splits a runtime local state into its k column sub-expressions
// and digests each column's renamed canonical form. The ||| spine persists
// through every SOS step (transParallel always rebuilds the Parallel node),
// so every reachable local state decomposes; a nil result (shape mismatch or
// column mixing) falls the whole global state back to identity keying, which
// is sound — only the reduction is lost.
func (sym *symmetry) symColsFor(e lotos.Expr) [][16]byte {
	parts := splitColumns(e, sym.k)
	if parts == nil {
		return nil
	}
	out := make([][16]byte, sym.k)
	for j, part := range parts {
		canon, ok := sym.canonSym(part, j)
		if !ok {
			return nil
		}
		out[j] = digest16([]byte(canon))
	}
	return out
}

// Message classification for canonical keys.
const (
	msgColShared = -1 // touches no column-private identifier
	msgColPoison = -2 // touches several columns: no canonical key exists
)

// msgMeta is the symmetry view of one interned message: the column that owns
// it and the digest of its column-0 renaming (equal to the digest of its
// column-0 counterpart; the message's own digest for shared and column-0
// messages).
type msgMeta struct {
	col  int32
	norm [16]byte
}

// msgDigest is the content digest of a message with the given fields. The
// input frames every field with its length, so no two distinct messages
// share an encoding — a tag shaped like "7#0" cannot collide with the
// node-7/occurrence-"0" message, and separator characters inside a tag
// cannot corrupt any framing.
func msgDigest(tag string, node int, occ string) [16]byte {
	buf := make([]byte, 0, 32)
	buf = binary.AppendUvarint(buf, uint64(len(tag)))
	buf = append(buf, tag...)
	buf = binary.AppendUvarint(buf, uint64(uint32(node)))
	buf = binary.AppendUvarint(buf, uint64(len(occ)))
	buf = append(buf, occ...)
	return digest16(buf)
}

// classify determines which column an in-flight message belongs to — via its
// node number and the call-site components of its occurrence path — and
// digests its column-0 renaming.
func (sym *symmetry) classify(m message) msgMeta {
	col := msgColShared
	mixed := false
	add := func(c int) {
		switch col {
		case msgColShared:
			col = c
		case c:
		default:
			mixed = true
		}
	}
	if c, private := sym.colOf[m.Node]; private {
		add(c)
	}
	sym.occColumns(m.Occ, add)
	if mixed {
		return msgMeta{col: msgColPoison}
	}
	if col == msgColShared || col == 0 {
		return msgMeta{col: int32(col), norm: msgDigest(m.Tag, m.Node, m.Occ)}
	}
	ok := true
	node := sym.renameID(m.Node, col, &ok)
	occ := sym.renameOcc(m.Occ, col, &ok)
	if !ok {
		return msgMeta{col: msgColPoison}
	}
	return msgMeta{col: int32(col), norm: msgDigest(m.Tag, node, occ)}
}

// sig returns column c's signature.
func (sc *keyScratch) sig(c int) []byte {
	if c == 0 {
		return sc.sigs[:sc.ends[0]]
	}
	return sc.sigs[sc.ends[c-1]:sc.ends[c]]
}

// sigAfter reports whether column a's signature sorts after column b's.
// Every signature starts with a 16-byte digest, so the first 8 bytes,
// compared as a big-endian integer, settle most pairs without a call.
func (sc *keyScratch) sigAfter(a, b int) bool {
	sa, sb := sc.sig(a), sc.sig(b)
	if pa, pb := binary.BigEndian.Uint64(sa), binary.BigEndian.Uint64(sb); pa != pb {
		return pa > pb
	}
	return bytes.Compare(sa[8:], sb[8:]) > 0
}

// canonKeyLocked builds the canonical (orbit-representative) key of a global
// state: the columns are sorted by their full signature — per-place column
// digests plus the column's queue footprint — and the state is re-encoded in
// that order. Two states in the same permutation orbit sort to the same
// encoding; conversely an equal encoding reconstructs the state up to a
// column permutation, so the key never merges states outside one orbit.
// (Columns with equal signatures necessarily have empty queue footprints —
// a queued message occupies one concrete position, which would differ — so
// sort ties are genuinely interchangeable and the key is well defined.)
//
// An orbit key is a 16-byte content digest whose first byte has its top
// bit set, where an identity key starts with identityTag (0x00): the two
// key domains are disjoint, so an orbit key never equals the identity key
// of any state. Returns ok=false — fall back to the identity key — when any
// local state fails to decompose or any in-flight message mixes columns.
// Both properties are invariant under column permutation, so mixing
// canonical and identity keys within one exploration cannot merge or split
// an orbit incorrectly. Everything is built in sc, so a key allocates
// nothing. Caller holds s.mu (read).
func (s *System) canonKeyLocked(g gstate, sc *keyScratch) ([16]byte, bool) {
	k, n := s.sym.k, len(s.Places)
	cols := sc.cols[:0] // place -> column -> digest
	for idx := 0; idx < n; idx++ {
		c := s.local[idx][g[idx]].symCols
		if c == nil {
			return [16]byte{}, false
		}
		cols = append(cols, c)
	}
	sc.cols = cols
	for o := n; o < len(g); {
		var q []int32
		q, o = g.queueAt(o)
		for _, mid := range q {
			if s.msgMeta[mid].col == msgColPoison {
				return [16]byte{}, false
			}
		}
	}
	// Per-column signatures: local digests at every place, then the queue
	// footprint (slot, position, normalized content) of the column's
	// in-flight messages.
	sigs, ends := sc.sigs[:0], sc.ends[:0]
	for c := 0; c < k; c++ {
		for idx := 0; idx < n; idx++ {
			sigs = append(sigs, cols[idx][c][:]...)
		}
		o := n
		for slot := 0; slot < n*n; slot++ {
			var q []int32
			q, o = g.queueAt(o)
			for pos, mid := range q {
				if meta := &s.msgMeta[mid]; int(meta.col) == c {
					sigs = binary.AppendUvarint(sigs, uint64(slot))
					sigs = binary.AppendUvarint(sigs, uint64(pos))
					sigs = append(sigs, meta.norm[:]...)
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
		for j := c; j > 0 && sc.sigAfter(order[j-1], c); j-- {
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
	// Re-encode the state with columns in canonical order.
	buf := sc.buf[:0]
	for idx := 0; idx < n; idx++ {
		for _, c := range order {
			buf = append(buf, cols[idx][c][:]...)
		}
	}
	o := n
	for slot := 0; slot < n*n; slot++ {
		var q []int32
		q, o = g.queueAt(o)
		if len(q) == 0 {
			continue
		}
		buf = binary.AppendUvarint(buf, uint64(slot)+1)
		buf = binary.AppendUvarint(buf, uint64(len(q)))
		for _, mid := range q {
			meta := &s.msgMeta[mid]
			if meta.col == msgColShared {
				buf = append(buf, 0)
				buf = append(buf, meta.norm[:]...)
			} else {
				buf = append(buf, 1, byte(rank[meta.col]))
				buf = append(buf, meta.norm[:]...)
			}
		}
	}
	sc.buf = buf
	key := digest16(buf)
	key[0] |= 0x80 // the orbit-key domain (see above)
	return key, true
}
