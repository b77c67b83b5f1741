// Package compose builds the global behaviour of a derived protocol — the
// right-hand side of the paper's correctness relation (Section 5):
//
//	hide G in ( ( T_1(S) ||| T_2(S) ||| ... ||| T_n(S) ) |[G]| Medium )
//
// as an explicit product transition system over the entity states and the
// channel contents of the communication medium, with all message
// interactions (the set G) hidden. The observable labels are exactly the
// service primitives plus successful termination, so the result can be
// compared against the service specification with internal/equiv.
//
// The medium follows Section 5.2: one FIFO channel per ordered pair of
// places, no loss, duplication or reordering. The channel capacity is
// configurable; the paper's proof assumes capacity 1, which is the default.
// Successful termination synchronizes across the entities only — the
// paper's Medium never terminates, and its algebraic proof composes
// termination over the entities alone.
//
// # State keys
//
// A global state is one packed int32 vector: the entities' interned local
// state ids in place order, then every channel's queue length and queued
// interned message ids in slot order. Its identity key is that vector
// packed exactly: a tag byte, each place's local id, then for each
// non-empty channel its slot + 1, queue length and message ids, all as
// uvarints. Within one table a local id stands for one canonical local
// expression (or one quotient class) and a message id for one message, so
// two states share a key exactly when they are the same state; no hash is
// involved. The key bytes follow interning order, which differs between
// tables and between serial and parallel runs over one table. Numbering
// does not: the exploration core numbers states by discovery and compares
// keys only for equality, so every run yields the same graph.
// The product factors through the entity transition systems: a System steps
// one fsm.Machine per place (its exact rows, or its minimized rows when
// verifying compositionally), whose dense state ids are the local ids. A
// row is translated once, on first use, into an id-indexed table of
// transitions with interned message ids (and, for symmetric entities, the
// states' interned column ids), so queue operations never allocate or
// compare strings.
//
// # Sharing across checks
//
// A Verifier is one protocol's verification memo, shared by every check of
// the protocol, whatever its fault model, channel capacity or reduction
// set. Its machines live in two stores: its exact table (one machine per
// place and the translated rows, built on first use, with the entities'
// instance symmetry detected once, before any row is translated) and a
// content-addressed fsm.Cache of capped machines, whose minimized layers
// the compositional path reads. It also keeps its service graph. The
// optimizer's candidate entity sets share the service graph and the cache.
// Verify and New are one-shot Verifiers.
// Since numbering never reads key bytes, a check on a warm Verifier
// explores the same graph, with the same numbering and witness, as on a
// fresh one; only the bytes of Graph.Keys differ.
//
// Deriving the successors of a state holds the system's read lock once for
// the whole call (upgraded only to translate a row on first use). A
// transition's label is an lts.LabelID the table interns once per row, when
// it translates the row, so a derived transition carries 4 bytes of label,
// not a copied lts.Label, and the explored graph's edges are 8-byte
// records; the graph's Alphabet is a snapshot of the table's labels, which
// later checks extend but never change. The
// targets are built in one slab of vectors, their keys are written into
// reused scratch and cut from one string, and the exploration core copies
// only the key of a state it adds. So what a derivation allocates does not
// grow with the number of transitions it derives. A Verifier remembers the
// size of each configuration's last product, and the next exploration under
// that configuration presizes its index and slices from it.
package compose

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/fsm"
	"repro/internal/lotos"
	"repro/internal/lts"
)

// DefaultChannelCap is the per-channel capacity used by the Section-5 proof.
const DefaultChannelCap = 1

// Config tunes the product construction.
type Config struct {
	// ChannelCap bounds the number of messages in transit per ordered
	// channel (default 1). Larger capacities approximate the unbounded
	// medium of the service architecture.
	ChannelCap int
	// Limits bounds the exploration of the product state space.
	Limits lts.Limits
	// Reductions selects the state-space reductions (POR, symmetry, disk
	// spilling) applied during exploration. The zero value selects the
	// default set (POR only); RedNone selects none. See Reductions.
	Reductions Reductions
	// SpillBudget bounds the in-memory visited index (in bytes) when the
	// RedSpill reduction is enabled; past it, sorted key runs spill to temp
	// files. 0 selects lts.DefaultSpillBudget.
	SpillBudget int64
	// SpillDir is the directory for spilled runs ("" = the OS temp dir).
	SpillDir string
	// Parallel derives the successors of each BFS level with Workers
	// goroutines instead of one. Exploration runs the same core either way
	// and yields the identical graph, state numbering included.
	Parallel bool
	// Workers sizes the derivation worker pool (0 = GOMAXPROCS). Ignored
	// unless Parallel is set.
	Workers int
	// Faults composes medium faults — message loss, duplication, adjacent
	// reordering — into the product as internal medium transitions. The
	// zero value is the paper's reliable medium. See FaultModel.
	Faults FaultModel
}

// System is a set of protocol entities ready for product exploration.
type System struct {
	// Places lists the entity places in ascending order.
	Places []int

	// The entities' machines as the product reads them: the exact rows'
	// table its Verifier shares across checks, or one of its own for a
	// compositional system.
	*table
	cfg Config
	// red is the resolved reduction set (Config.effectiveReductions).
	red Reductions
	// sym is the symmetry in force: the table's when red holds
	// RedSymmetry, else nil.
	sym *symmetry
	// Reduction telemetry. The counters are atomic because the derivation
	// workers share the system; spillStats is written once by Explore
	// (single-threaded) after a spilling exploration returns.
	orbitsCollapsed atomic.Int64
	ampleHits       atomic.Int64
	spillStats      *lts.SpillStats
	// sizes is the Verifier's memo of product sizes, which presizes the
	// explorations.
	sizes *sizeMemo
}

// table is the product's view of one machine per place: its rows
// translated into local states and interned messages. Translation
// depends on the machines and the places alone, never on the channel
// capacity, the fault model or the limits, so every product over the same
// machines can read one table, filled by whichever exploration first
// reaches a row. Local and message ids follow that order; they enter the
// state keys, but the numbering of product states does not depend on key
// bytes, so a product numbers its states and derives its transitions
// identically over a filled table and an empty one.
type table struct {
	// One machine per place, indexed like the places, and in a
	// compositional table the minimized layers whose rows it reads instead.
	machines []*fsm.Machine
	min      []*fsm.Minimized
	placeIdx map[int]int // place number -> index in the places
	// sym is the entities' detected instance symmetry, nil when none
	// exists. The table interns its columns whatever a system's reductions;
	// a system applies them only under RedSymmetry (see System.sym).
	sym *symmetry

	// The translated local tables, the interned messages, the interned
	// symmetry column forms and the interned labels of the products' edges,
	// shared by every exploration and derivation worker, hence the lock.
	mu      sync.RWMutex
	local   [][]localState    // place idx -> local id -> state
	msgIDs  map[message]int32 // message -> id
	msgs    []message         // id -> message (diagnostics)
	msgMeta []msgMeta         // id -> symmetry classification (sym != nil only)
	colIDs  map[string]int32  // renamed canonical column form -> id (sym != nil only)
	labels  *lts.LabelTable   // the products' graph table
}

// localState is one local state as the product reads it. Rows are
// translated lazily: entities may be infinite-state under recursion.
type localState struct {
	trans []cachedTrans // nil until the row is translated
	// symCols holds the interned id of each column's renamed canonical form
	// when the table has a symmetry (nil otherwise, or when the state does
	// not decompose into the detected columns).
	symCols []int32
}

// cachedTrans is an entity-local transition targeting a local state, with
// the message bookkeeping and the product label resolved once at
// translation time.
type cachedTrans struct {
	op    fsm.Op
	ev    *lotos.Event // the row's event (zero for internal and δ transitions)
	to    int32        // local state id
	peer  int32        // place index of the message peer, -1 for non-message ops
	msg   int32        // interned message id (sent or expected), -1 otherwise
	label lts.LabelID  // the product edge's label: the service primitive's, else internal
}

// growLocked extends a place's table to cover local state id, interning
// each new state's symmetry columns from its expression when the table has
// a symmetry. The invariant that makes this sound: only this table steps
// its machines, and it translates a state's row only after growing the
// state, so a new state's row is unfilled and its expression, which a
// machine drops once the row is filled, still there. A compositional table
// has no symmetry. Caller holds s.mu for writing.
func (s *table) growLocked(idx int, id int32) {
	for j := int32(len(s.local[idx])); j <= id; j++ {
		var st localState
		if s.sym != nil && s.min[idx] == nil {
			_, e := s.machines[idx].State(j)
			st.symCols = s.columnIDsLocked(e)
		}
		s.local[idx] = append(s.local[idx], st)
	}
}

// msgIDLocked assigns (or recalls) the interned id of a message. When the
// table has a symmetry it classifies a new message and interns its column-0
// renaming too; a renaming is a column-0 message, its own renaming, so that
// inner call interns nothing more. The map is keyed by the message's
// fields, so two distinct messages never share an id — a tag shaped like
// "7#0" is not the node-7/occurrence-"0" message. Caller holds s.mu for
// writing.
func (s *table) msgIDLocked(m message) int32 {
	if id, ok := s.msgIDs[m]; ok {
		return id
	}
	id := int32(len(s.msgs))
	s.msgIDs[m] = id
	s.msgs = append(s.msgs, m)
	if s.sym != nil {
		col, norm := s.sym.classify(m)
		s.msgMeta = append(s.msgMeta, msgMeta{col: col, norm: id})
		if norm != m {
			s.msgMeta[id].norm = s.msgIDLocked(norm)
		}
	}
	return id
}

// localTransRLocked returns the transitions of a local state, translating
// its row — the machine's exact row, or its minimized class row — on first
// use. The caller holds s.mu for reading. Only an untranslated state
// releases it: the translation runs under the write lock, and the read lock
// is re-taken before returning.
func (s *table) localTransRLocked(idx int, id int32) ([]cachedTrans, error) {
	if st := &s.local[idx][id]; st.trans != nil {
		return st.trans, nil
	}
	s.mu.RUnlock()
	s.mu.Lock()
	defer s.mu.RLock()
	defer s.mu.Unlock()
	if st := &s.local[idx][id]; st.trans != nil {
		return st.trans, nil
	}
	var ops []fsm.Op
	var evs []lotos.Event
	var target func(i int) int32 // the local id of transition i's target
	if min := s.min[idx]; min != nil {
		lo, hi := min.Off[id], min.Off[id+1]
		ops, evs = min.Ops[lo:hi], min.Events[lo:hi]
		target = func(i int) int32 { return min.To[int(lo)+i] }
	} else {
		fs, _ := s.machines[idx].State(id)
		r, err := s.machines[idx].Row(fs)
		if err != nil {
			return nil, err
		}
		ops, evs = r.Ops, r.Events
		target = func(i int) int32 { return r.To[i].ID() }
	}
	out := make([]cachedTrans, len(ops))
	for i, op := range ops {
		ct := cachedTrans{op: op, ev: &evs[i], to: target(i), peer: -1, msg: -1, label: lts.InternalID}
		s.growLocked(idx, ct.to)
		switch op {
		case fsm.OpService:
			ct.label = s.labels.Intern(lts.EventLabel(*ct.ev))
		case fsm.OpSend, fsm.OpRecv, fsm.OpRecvFlush:
			pi, ok := s.placeIdx[ct.ev.Place]
			if !ok {
				return nil, fmt.Errorf("message event %s targets unknown place %d", ct.ev, ct.ev.Place)
			}
			ct.peer = int32(pi)
			ct.msg = s.msgIDLocked(msgOf(*ct.ev))
		}
		out[i] = ct
	}
	s.local[idx][id].trans = out
	return out, nil
}

// newTable prepares the local tables of the machines, and minimized layers
// if any, that pick selects per place. sym is the symmetry the tables intern
// columns for, nil for none.
func newTable(places []int, sym *symmetry, pick func(p int) (*fsm.Machine, *fsm.Minimized, error)) (*table, error) {
	t := &table{placeIdx: map[int]int{}, sym: sym, msgIDs: map[message]int32{}, colIDs: map[string]int32{}, labels: lts.NewGraphTable()}
	for idx, p := range places {
		m, min, err := pick(p)
		if err != nil {
			return nil, err
		}
		t.machines, t.min, t.local = append(t.machines, m), append(t.min, min), append(t.local, nil)
		t.placeIdx[p] = idx
		t.growLocked(idx, 0)
	}
	return t, nil
}

// exactMachines picks the machine of each place's entity for a table over
// exact rows. No product limit can reach its cap, so every local state the
// product steps is retained and has an id. Each entity is resolved
// independently (entities have their own process name spaces) in its
// machine's private clone.
func exactMachines(entities map[int]*lotos.Spec) func(p int) (*fsm.Machine, *fsm.Minimized, error) {
	return func(p int) (*fsm.Machine, *fsm.Minimized, error) {
		m, err := fsm.New(p, entities[p], fsm.Config{MaxStates: math.MaxInt32})
		if err != nil {
			return nil, nil, fmt.Errorf("compose: entity %d: %w", p, errors.Unwrap(err))
		}
		return m, nil, nil
	}
}

// newSystem prepares a product system over table t with the resolved
// reduction set red, presizing its explorations from sizes.
func newSystem(places []int, t *table, cfg Config, red Reductions, sizes *sizeMemo) *System {
	if cfg.ChannelCap <= 0 {
		cfg.ChannelCap = DefaultChannelCap
	}
	s := &System{Places: places, table: t, cfg: cfg, red: red, sizes: sizes}
	if red&RedSymmetry != 0 {
		s.sym = t.sym
	}
	return s
}

// New prepares a system from derived entities, stepping the exact rows of
// one machine per place: the system of a one-shot Verifier.
func New(entities map[int]*lotos.Spec, cfg Config) (*System, error) {
	return NewVerifier(nil, entities, nil).system(cfg, cfg.effectiveReductions())
}

// message is one in-flight synchronization message.
type message struct {
	Node int
	Occ  string
	Tag  string
}

func msgOf(ev lotos.Event) message {
	return message{Node: ev.Node, Occ: ev.Occ, Tag: ev.Tag}
}

func (m message) String() string {
	if m.Tag != "" {
		return m.Tag
	}
	return fmt.Sprintf("%d#%s", m.Node, m.Occ)
}

// gstate is one global state packed into a single vector: the interned
// local-state ids of the entities (indexed like Places), then, for every
// channel slot fromIdx*n + toIdx in ascending order, the queue length
// followed by the queued interned message ids, head first. A built state
// never changes; derive carves the targets of one call from one slab.
type gstate []int32

// packState builds a state from the entities' local ids and the channel
// queues (indexed by slot).
func packState(locals []int32, chans [][]int32) *gstate {
	size := len(locals) + len(chans)
	for _, q := range chans {
		size += len(q)
	}
	g := make(gstate, 0, size)
	g = append(g, locals...)
	for _, q := range chans {
		g = append(g, int32(len(q)))
		g = append(g, q...)
	}
	return &g
}

// queueAt returns the queue whose length word is at offset o, and the
// offset of the next slot's length word.
func (g gstate) queueAt(o int) (q []int32, next int) {
	next = o + 1 + int(g[o])
	return g[o+1 : next], next
}

// keyScratch is the reused working memory of orbit-key construction.
type keyScratch struct {
	// The per-place column ids, the per-column signatures back to back
	// (column c ends at ends[c]), and the canonical column order and its
	// inverse.
	cols  [][]int32
	sigs  []byte
	ends  []int
	order []int
	rank  []int
}

// deriveScratch is the reused working memory of one derive call; calls take
// one from scratchPool, so concurrent workers never share one.
type deriveScratch struct {
	keyScratch
	offs  []int   // slot -> offset of its length word in the source state
	moves []move  // the derived moves, in emission order
	delta []int32 // the local targets of the global δ
	keys  []byte  // the targets' keys, back to back
	kends []int   // move -> end offset of its target's key in keys
}

var scratchPool = sync.Pool{New: func() any { return new(deriveScratch) }}

// key builds the global state key. Under symmetry reduction the key
// identifies the state's permutation orbit (see appendOrbitKeyLocked), falling
// back to the identity key for states no column permutation applies to.
func (s *System) key(g *gstate) string {
	sc := scratchPool.Get().(*deriveScratch)
	defer scratchPool.Put(sc)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return string(s.appendKeyLocked(nil, *g, &sc.keyScratch))
}

// appendKeyLocked appends the key of g to dst, building an orbit key in
// scratch memory. Caller holds s.mu (read).
func (s *System) appendKeyLocked(dst []byte, g gstate, sc *keyScratch) []byte {
	if s.sym != nil {
		if key, ok := s.appendOrbitKeyLocked(dst, g, sc); ok {
			return key
		}
	}
	return g.appendIdentityKey(dst, len(s.Places))
}

// A key's first byte names its domain, so no identity key equals an orbit
// key.
const (
	identityTag = 0x00
	orbitTag    = 0x80
)

// appendIdentityKey appends the identity key of the n-place state g to dst:
// identityTag, each place's local id, then for each non-empty channel its
// slot + 1, queue length and queued message ids, all as uvarints. Channels
// come in ascending slot order and each carries its length, so the bytes
// decode to exactly one state: the key is the state itself, packed, and
// two states share it exactly when they are equal.
func (g gstate) appendIdentityKey(dst []byte, n int) []byte {
	dst = append(dst, identityTag)
	for _, id := range g[:n] {
		dst = binary.AppendUvarint(dst, uint64(id))
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
			dst = binary.AppendUvarint(dst, uint64(mid))
		}
	}
	return dst
}

// source implements lts.SizedSource over the product system. Next is safe
// for concurrent use (the derivation workers share one source).
type source struct {
	sys *System
}

// Next appends the global transitions of a product state to out.
func (src *source) Next(state any, out []lts.GenTransition) ([]lts.GenTransition, error) {
	out, _, err := src.sys.derive(state.(*gstate), out, false)
	return out, err
}

// Alphabet snapshots the table's labels: later checks on the table intern
// more, but never touch the snapshot's entries.
func (src *source) Alphabet() []lts.Label {
	src.sys.mu.RLock()
	defer src.sys.mu.RUnlock()
	return src.sys.labels.Alphabet()
}

// Size recalls the size of the last product explored under the system's
// configuration.
func (src *source) Size() lts.Size { return src.sys.sizes.get(src.sys.productConfig()) }

// Explored records the size of a finished exploration for the next one
// under the same configuration.
func (src *source) Explored(size lts.Size) { src.sys.sizes.put(src.sys.productConfig(), size) }

// productConfig is what a product's graph depends on besides its machines:
// the channel capacity, the fault model, the limits, the effective
// reductions, and whether the product steps minimized rows.
type productConfig struct {
	chanCap   int
	faults    FaultModel
	lim       lts.Limits
	red       Reductions
	minimized bool
}

func (s *System) productConfig() productConfig {
	return productConfig{s.cfg.ChannelCap, s.cfg.Faults, s.cfg.Limits, s.red, len(s.min) > 0 && s.min[0] != nil}
}

// sizeMemo keeps the size of the last product explored under each
// configuration, from which the next exploration under it presizes its
// index and slices (see lts.SizedSource). A Verifier's checks reach the
// same graphs again, so the sizes are exact; the memo holds one entry per
// configuration checked.
type sizeMemo struct {
	mu sync.Mutex
	m  map[productConfig]lts.Size
}

func (m *sizeMemo) get(c productConfig) lts.Size {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.m[c]
}

func (m *sizeMemo) put(c productConfig, size lts.Size) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.m == nil {
		m.m = map[productConfig]lts.Size{}
	}
	m.m[c] = size
}

// moveKind classifies a derived global move by what it changes.
type moveKind uint8

const (
	mvLocal   moveKind = iota // one entity's service primitive or internal action
	mvSend                    // one entity's send, enqueueing a message
	mvRecv                    // one entity's receive, consuming a queue prefix
	mvDelta                   // global termination: every entity moves
	mvLoss                    // the medium drops a queued message
	mvDup                     // the medium duplicates a queued message
	mvReorder                 // the medium swaps two adjacent queued messages
)

// move is one derived global transition before its target is built.
type move struct {
	kind moveKind
	idx  int32 // acting entity (local, send, recv)
	// t is the fired local transition and tIndex its index in the entity's
	// transition list (local, send, recv).
	t      *cachedTrans
	tIndex int32
	slot   int32 // channel slot (send, recv, faults)
	pos    int32 // recv: messages consumed from the head; faults: queue position
}

// grow is the length difference between the move's target and source.
func (m *move) grow() int {
	switch m.kind {
	case mvSend, mvDup:
		return 1
	case mvLoss:
		return -1
	case mvRecv:
		return -int(m.pos)
	}
	return 0
}

// label is the move's transition label: a local step shows its service
// primitive (internal for an internal action); every message and medium
// move is internal.
func (m *move) label() lts.LabelID {
	switch m.kind {
	case mvDelta:
		return lts.DeltaID
	case mvLocal:
		return m.t.label
	}
	return lts.InternalID
}

// consumed returns how many messages a receive of want takes from the head
// of q — the head itself or, with flush semantics, the discarded prefix up
// to and including the first want — or 0 when want is not consumable.
func consumed(q []int32, want int32, flush bool) int32 {
	if !flush {
		if len(q) > 0 && q[0] == want {
			return 1
		}
		return 0
	}
	for i, m := range q {
		if m == want {
			return int32(i + 1)
		}
	}
	return 0
}

// derive appends the global transitions of a product state to out:
//
//   - a service primitive of entity i -> observable transition;
//   - an internal action of entity i  -> internal transition;
//   - a send s_j(m) of entity i       -> internal transition enqueueing m on
//     channel i->j, enabled while the channel has room;
//   - a receive r_j(m) of entity i    -> internal transition consuming m,
//     enabled when m is at the head of channel j->i (FIFO);
//   - successful termination          -> one global δ when every entity can
//     terminate (δ synchronizes across the interleaved entities);
//   - a medium fault (per Config.Faults) -> internal transition dropping,
//     duplicating or swapping in-transit messages (see faultMoves).
//
// One read lock covers the call. The moves are collected first; then every
// target is built in one slab of vectors and keyed into reused scratch, and
// the variable-length keys of all targets are cut from one string. So a
// call allocates a fixed number of times however many transitions it
// derives.
//
// With annotate set it also returns one WitnessStep per transition — the
// concrete description (acting entity, local transition index, channel,
// message, fault) used to build replayable counterexamples. The two slices
// are index-aligned.
func (s *System) derive(g *gstate, out []lts.GenTransition, annotate bool) ([]lts.GenTransition, []WitnessStep, error) {
	sc := scratchPool.Get().(*deriveScratch)
	defer scratchPool.Put(sc)
	s.mu.RLock()
	defer s.mu.RUnlock()
	src := *g
	if err := s.movesRLocked(src, sc); err != nil {
		return out, nil, err
	}
	moves := sc.moves
	if len(moves) == 0 {
		return out, nil, nil
	}
	total := 0
	for i := range moves {
		total += len(src) + moves[i].grow()
	}
	states := make([]gstate, len(moves))
	vec := make([]int32, total)
	sc.keys, sc.kends = sc.keys[:0], sc.kends[:0]
	for i := range moves {
		size := len(src) + moves[i].grow()
		next := vec[:size:size]
		vec = vec[size:]
		sc.build(next, src, &moves[i], len(s.Places))
		states[i] = next
		sc.keys = s.appendKeyLocked(sc.keys, next, &sc.keyScratch)
		sc.kends = append(sc.kends, len(sc.keys))
	}
	keys := string(sc.keys)
	lo := 0
	for i, hi := range sc.kends {
		out = append(out, lts.GenTransition{Label: moves[i].label(), Key: keys[lo:hi], To: &states[i]})
		lo = hi
	}
	if !annotate {
		return out, nil, nil
	}
	steps := make([]WitnessStep, len(moves))
	for i := range moves {
		steps[i] = s.stepLocked(src, sc, &moves[i])
	}
	return out, steps, nil
}

// movesRLocked collects the moves of state g into sc.moves, in emission
// order. Caller holds s.mu (read).
func (s *System) movesRLocked(g gstate, sc *deriveScratch) error {
	n := len(s.Places)
	sc.moves = sc.moves[:0]
	sc.offs = sc.offs[:0]
	for slot, o := 0, n; slot < n*n; slot++ {
		sc.offs = append(sc.offs, o)
		o += 1 + int(g[o])
	}

	// Ample-set partial-order reduction: if one entity's complete local
	// transition set qualifies as an ample set, fire exactly those
	// transitions as the state's global moves. Two shapes qualify:
	//
	//   - a sole internal action: invisible, touches no channel, so it
	//     commutes with every other entity's move and every medium fault,
	//     disables nothing, and commits no local choice (no alternative);
	//   - ALL local transitions are receives and EVERY one is consumable
	//     right now on a fault-free channel: receives are invisible, only
	//     this entity consumes its channels (senders append at the tail, so
	//     a peer's move neither disables a receive nor changes which message
	//     it consumes — flush receives discard the same prefix either way),
	//     and since the full enabled set of the entity is taken, no local
	//     choice branch is lost. Receives strictly decrease the number of
	//     queued messages, so an exploration can never cycle through
	//     ample-only states and starve another entity's moves (the ample-set
	//     cycle proviso holds for free).
	//
	// An entity with a blocked receive is NOT eligible — a peer's send could
	// enable it, committing the local choice differently — and neither are
	// mixed internal/receive sets. Sends are never eligible: with bounded
	// channels, reordering two sends onto one channel changes the FIFO
	// order. A receive does not commute with faults on its channel (losing
	// or duplicating the message it would consume leads elsewhere), so the
	// all-receives shape additionally requires its channels fault-free;
	// the sole-internal shape stays eligible under every fault model.
	if s.red&RedPOR != 0 {
	ample:
		for idx := 0; idx < n; idx++ {
			ts, err := s.localTransRLocked(idx, g[idx])
			if err != nil {
				return fmt.Errorf("entity %d: %w", s.Places[idx], err)
			}
			if len(ts) == 0 {
				continue
			}
			if len(ts) == 1 && ts[0].op == fsm.OpInternal {
				sc.moves = append(sc.moves, move{kind: mvLocal, idx: int32(idx), t: &ts[0]})
				s.ampleHits.Add(1)
				return nil
			}
			for i := range ts {
				if op := ts[i].op; op != fsm.OpRecv && op != fsm.OpRecvFlush {
					continue ample
				}
			}
			if s.cfg.Faults.Any() {
				continue // the receives' channels are not fault-free
			}
			for i := range ts {
				t := &ts[i]
				slot := int(t.peer)*n + idx
				q, _ := g.queueAt(sc.offs[slot])
				k := consumed(q, t.msg, t.op == fsm.OpRecvFlush)
				if k == 0 {
					sc.moves = sc.moves[:0]
					continue ample // a blocked receive disqualifies the whole set
				}
				sc.moves = append(sc.moves, move{kind: mvRecv, idx: int32(idx), t: t, tIndex: int32(i), slot: int32(slot), pos: k})
			}
			s.ampleHits.Add(1)
			return nil
		}
	}

	deltaReady := 0
	sc.delta = append(sc.delta[:0], g[:n]...)
	for idx := 0; idx < n; idx++ {
		ts, err := s.localTransRLocked(idx, g[idx])
		if err != nil {
			return fmt.Errorf("entity %d: %w", s.Places[idx], err)
		}
		sawDelta := false
		for i := range ts {
			t := &ts[i]
			m := move{idx: int32(idx), t: t, tIndex: int32(i)}
			switch t.op {
			case fsm.OpDelta:
				if !sawDelta {
					sawDelta = true
					deltaReady++
					sc.delta[idx] = t.to
				}
				continue
			case fsm.OpInternal, fsm.OpService:
				m.kind = mvLocal
			case fsm.OpSend:
				slot := idx*n + int(t.peer)
				if int(g[sc.offs[slot]]) >= s.cfg.ChannelCap {
					continue // channel full: the send blocks
				}
				m.kind, m.slot = mvSend, int32(slot)
			case fsm.OpRecv, fsm.OpRecvFlush:
				slot := int(t.peer)*n + idx
				q, _ := g.queueAt(sc.offs[slot])
				k := consumed(q, t.msg, t.op == fsm.OpRecvFlush)
				if k == 0 {
					continue // no matching message consumable
				}
				m.kind, m.slot, m.pos = mvRecv, int32(slot), k
			}
			sc.moves = append(sc.moves, m)
		}
	}
	if deltaReady == n && n > 0 {
		sc.moves = append(sc.moves, move{kind: mvDelta})
	}
	if s.cfg.Faults.Any() {
		s.faultMoves(g, sc)
	}
	return nil
}

// faultMoves appends the medium's fault moves of a state, one per
// applicable (channel, position, fault) triple, in deterministic order:
// channels by ascending slot; per channel loss, then duplication, then
// reordering; per fault ascending queue position.
func (s *System) faultMoves(g gstate, sc *deriveScratch) {
	for slot, o := range sc.offs {
		q, _ := g.queueAt(o)
		if len(q) == 0 {
			continue
		}
		if s.cfg.Faults.Loss {
			for i := range q {
				sc.moves = append(sc.moves, move{kind: mvLoss, slot: int32(slot), pos: int32(i)})
			}
		}
		if s.cfg.Faults.Duplication && len(q) < s.cfg.ChannelCap {
			for i := range q {
				sc.moves = append(sc.moves, move{kind: mvDup, slot: int32(slot), pos: int32(i)})
			}
		}
		if s.cfg.Faults.Reorder {
			for i := 0; i+1 < len(q); i++ {
				if q[i] == q[i+1] {
					continue // swapping identical messages is a no-op
				}
				sc.moves = append(sc.moves, move{kind: mvReorder, slot: int32(slot), pos: int32(i)})
			}
		}
	}
}

// build writes the target of move m from the n-entity state g into dst,
// whose length is exactly the target's.
func (sc *deriveScratch) build(dst, g gstate, m *move, n int) {
	copy(dst[:n], g[:n])
	switch m.kind {
	case mvDelta:
		copy(dst[:n], sc.delta)
	case mvLocal, mvSend, mvRecv:
		dst[m.idx] = m.t.to
	}
	if m.kind == mvLocal || m.kind == mvDelta {
		copy(dst[n:], g[n:])
		return
	}
	o := sc.offs[m.slot]
	copy(dst[n:o], g[n:o])
	q, end := g.queueAt(o)
	w := dst[o+1 : o+1] // appends fill dst in place: it has the room
	switch m.kind {
	case mvSend:
		w = append(append(w, q...), m.t.msg)
	case mvRecv:
		w = append(w, q[m.pos:]...)
	case mvLoss:
		w = append(append(w, q[:m.pos]...), q[m.pos+1:]...)
	case mvDup:
		w = append(append(append(w, q[:m.pos+1]...), q[m.pos]), q[m.pos+1:]...)
	case mvReorder:
		w = append(w, q...)
		w[m.pos], w[m.pos+1] = w[m.pos+1], w[m.pos]
	}
	dst[o] = int32(len(w))
	copy(dst[o+1+len(w):], g[end:])
}

// Explore builds the observable global transition graph of the composed
// protocol system. Config.Parallel sets how many workers derive each BFS
// level; RedSpill selects the disk-spilling visited index, whose statistics
// then become available through ReductionInfo.
func (s *System) Explore() (*lts.Graph, error) {
	g, _, err := s.explore(false)
	return g, err
}

// ExploreStatsOnly explores the product counting states without retaining
// the graph — the memory-bounded census mode for products far past what a
// retained graph could hold. Requires RedSpill (the spilling index is the
// only one that can discard visited states) and no depth limits.
func (s *System) ExploreStatsOnly() (*lts.SpillStats, error) {
	if s.red&RedSpill == 0 {
		return nil, fmt.Errorf("compose: ExploreStatsOnly requires the spill reduction")
	}
	_, st, err := s.explore(true)
	return st, err
}

// explore runs the exploration core with the configured worker count and
// visited index.
func (s *System) explore(statsOnly bool) (*lts.Graph, *lts.SpillStats, error) {
	workers := 1
	if s.cfg.Parallel {
		workers = s.cfg.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
	}
	var spill *lts.SpillConfig
	if s.red&RedSpill != 0 {
		spill = &lts.SpillConfig{Budget: s.cfg.SpillBudget, Dir: s.cfg.SpillDir, StatsOnly: statsOnly}
	}
	root := s.rootState()
	g, st, err := lts.ExploreSource(&source{sys: s}, s.key(root), root, s.cfg.Limits, workers, spill)
	s.spillStats = st
	return g, st, err
}

// ReductionInfo reports the reduction configuration and the work each
// enabled reduction did during the system's explorations so far.
func (s *System) ReductionInfo() ReductionStats {
	rs := ReductionStats{
		Enabled:         (s.red | redExplicit).String(),
		OrbitsCollapsed: s.orbitsCollapsed.Load(),
		AmpleHits:       s.ampleHits.Load(),
	}
	if s.sym != nil {
		rs.SymmetryColumns = s.sym.k
	}
	if st := s.spillStats; st != nil {
		rs.SpillRuns = st.Runs
		rs.SpilledBytes = st.SpilledBytes
		rs.PeakMemBytes = st.PeakMemBytes
	}
	return rs
}

// concrete reports whether the product's states are the concrete product's
// — no symmetry orbits, no entity quotient classes — so its paths replay
// through the entity machines.
func (s *System) concrete() bool {
	return s.sym == nil && (len(s.min) == 0 || s.min[0] == nil)
}

// rootState builds the composed initial state: every entity at its
// initial state (local id 0), all channels empty.
func (s *System) rootState() *gstate {
	n := len(s.Places)
	return packState(make([]int32, n), make([][]int32, n*n))
}
