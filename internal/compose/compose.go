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
// Global states are identified by a compact fixed-layout binary key: the
// 16-byte content digests of the entities' interned local states (one per
// place, in place order) followed by the non-empty channels (slot number,
// queue length, one digest per in-flight message), hashed once more to a
// fixed 16 bytes. Every component is derived from *content* (the canonical
// local expression, the message's tag/node/occurrence), never from interning
// order, so the key of a global state is identical no matter which
// exploration order — serial or parallel — first reached it. Entity-local
// states and messages are interned to small integers per System, so queue
// operations and equality checks never allocate or compare strings.
package compose

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
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
	// Entities holds one specification per place.
	Entities map[int]*lotos.Spec

	envs     []*lts.Env  // indexed like Places; nil for preset systems
	placeIdx map[int]int // place number -> index in Places
	cfg      Config
	// red is the resolved reduction set (Config.effectiveReductions); sym is
	// the detected instance symmetry, nil when RedSymmetry is off or no
	// symmetry exists.
	red Reductions
	sym *symmetry
	// Reduction telemetry. The counters are atomic because the derivation
	// workers share the system; spillStats is written once by Explore
	// (single-threaded) after a spilling exploration returns.
	orbitsCollapsed atomic.Int64
	ampleHits       atomic.Int64
	spillStats      *lts.SpillStats
	// preset marks a system whose local tables were preloaded from quotient
	// graphs (NewCompositional): every local state is already derived, state
	// ids mirror the quotient graphs' state numbering (0 = initial class),
	// and no SOS environment exists.
	preset bool

	// Interning tables, shared by every exploration of the system and by
	// every derivation worker, hence the lock.
	// Entity-local state interning mirrors the paper's observation that
	// the product factors through the (much smaller) local transition
	// systems: every distinct entity expression gets a small integer id
	// per place, local transitions are derived once per local state, and
	// messages are interned to small integers per system.
	mu      sync.RWMutex
	intern  []map[string]int32 // place idx -> canon -> local id
	local   [][]localState     // place idx -> local id -> state
	msgIDs  map[message]int32  // message -> id
	msgs    []message          // id -> message (diagnostics)
	msgSum  [][16]byte         // id -> content digest
	msgMeta []msgMeta          // id -> symmetry classification (sym != nil only)
}

// localState is one interned entity-local state. Transitions are derived
// lazily (entities may be infinite-state under recursion, so the local
// graphs cannot be built eagerly).
type localState struct {
	expr lotos.Expr
	// sum is the 16-byte digest of the canonical expression — the state's
	// order-independent contribution to global state keys.
	sum     [16]byte
	derived bool
	trans   []cachedTrans
	// symCols holds the per-column renamed-canonical digests under symmetry
	// reduction (nil when symmetry is off or the state does not decompose
	// into the detected columns).
	symCols [][16]byte
}

// cachedTrans is an entity-local transition targeting an interned state,
// with the message bookkeeping resolved once at derivation time.
type cachedTrans struct {
	label lts.Label
	to    int32 // local state id
	peer  int32 // place index of the message peer, -1 for non-message labels
	msg   int32 // interned message id (sent or expected), -1 otherwise
	flush bool  // receive carries interrupt-handshake flush semantics
}

// digest16 truncates a SHA-256 content digest to the 16 bytes used in keys.
func digest16(data []byte) (h [16]byte) {
	sum := sha256.Sum256(data)
	copy(h[:], sum[:16])
	return h
}

// internStateLocked assigns (or recalls) the local id of an entity
// expression. Caller holds s.mu.
func (s *System) internStateLocked(idx int, e lotos.Expr) int32 {
	key := lotos.Canon(e)
	if id, ok := s.intern[idx][key]; ok {
		return id
	}
	id := int32(len(s.local[idx]))
	s.intern[idx][key] = id
	st := localState{expr: e, sum: digest16([]byte(key))}
	if s.sym != nil {
		st.symCols = s.sym.symColsFor(e)
	}
	s.local[idx] = append(s.local[idx], st)
	return id
}

// msgIDLocked assigns (or recalls) the interned id of a message and its
// content digest. The digest input frames every field with its length, so
// no two distinct messages share an encoding — a tag shaped like "7#0"
// cannot collide with the node-7/occurrence-"0" message, and separator
// characters inside a tag cannot corrupt any framing. Caller holds s.mu.
func (s *System) msgIDLocked(m message) int32 {
	if id, ok := s.msgIDs[m]; ok {
		return id
	}
	id := int32(len(s.msgs))
	s.msgIDs[m] = id
	s.msgs = append(s.msgs, m)
	buf := make([]byte, 0, 32)
	buf = binary.AppendUvarint(buf, uint64(len(m.Tag)))
	buf = append(buf, m.Tag...)
	buf = binary.AppendUvarint(buf, uint64(uint32(m.Node)))
	buf = binary.AppendUvarint(buf, uint64(len(m.Occ)))
	buf = append(buf, m.Occ...)
	sum := digest16(buf)
	s.msgSum = append(s.msgSum, sum)
	if s.sym != nil {
		s.msgMeta = append(s.msgMeta, s.sym.classify(m, sum))
	}
	return id
}

// localTrans derives (once) and returns the transitions of a local state.
// Safe for concurrent use: cached results are returned under a read lock;
// the first derivation of a local state runs under the write lock, which
// also serializes the underlying (non-thread-safe) SOS environment.
func (s *System) localTrans(idx int, id int32) ([]cachedTrans, error) {
	s.mu.RLock()
	if st := &s.local[idx][id]; st.derived {
		trans := st.trans
		s.mu.RUnlock()
		return trans, nil
	}
	s.mu.RUnlock()

	s.mu.Lock()
	defer s.mu.Unlock()
	st := &s.local[idx][id]
	if st.derived {
		return st.trans, nil
	}
	ts, err := s.envs[idx].Transitions(st.expr)
	if err != nil {
		return nil, err
	}
	out := make([]cachedTrans, len(ts))
	for i, t := range ts {
		ct := cachedTrans{label: t.Label, to: s.internStateLocked(idx, t.To), peer: -1, msg: -1}
		if t.Label.Kind == lts.LEvent {
			ev := t.Label.Ev
			if ev.Kind == lotos.EvSend || ev.Kind == lotos.EvRecv {
				pi, ok := s.placeIdx[ev.Place]
				if !ok {
					return nil, fmt.Errorf("message event %s targets unknown place %d", ev, ev.Place)
				}
				ct.peer = int32(pi)
				ct.msg = s.msgIDLocked(msgOf(ev))
				if ev.Kind == lotos.EvRecv {
					ct.flush = flushingRecv(ev)
				}
			}
		}
		out[i] = ct
	}
	// Re-take the pointer: internStateLocked may have grown the backing
	// array.
	st = &s.local[idx][id]
	st.trans = out
	st.derived = true
	return out, nil
}

// New prepares a system from derived entities. Each entity is resolved
// independently (entities have their own process name spaces).
func New(entities map[int]*lotos.Spec, cfg Config) (*System, error) {
	if cfg.ChannelCap <= 0 {
		cfg.ChannelCap = DefaultChannelCap
	}
	sys := &System{
		Entities: entities,
		placeIdx: map[int]int{},
		cfg:      cfg,
		red:      cfg.effectiveReductions(),
		msgIDs:   map[message]int32{},
	}
	for p := range entities {
		sys.Places = append(sys.Places, p)
	}
	sort.Ints(sys.Places)
	for idx, p := range sys.Places {
		env, err := lts.EnvFor(entities[p])
		if err != nil {
			return nil, fmt.Errorf("compose: entity %d: %w", p, err)
		}
		sys.envs = append(sys.envs, env)
		sys.placeIdx[p] = idx
		sys.intern = append(sys.intern, map[string]int32{})
		sys.local = append(sys.local, nil)
	}
	// Symmetry must be detected before any state or message is interned:
	// the canonical column digests and message classifications are computed
	// at intern time.
	if sys.red&RedSymmetry != 0 {
		sys.sym = detectSymmetry(sys.Places, entities)
	}
	return sys, nil
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

// flushingRecv reports whether a receive event carries the interrupt-
// handshake flush semantics: consuming it discards everything queued
// before it on its channel (the messages were addressed to the normal part
// the interrupt killed).
func flushingRecv(ev lotos.Event) bool {
	return ev.Tag == "" && core.FlushingMsgID(ev.Node)
}

// consumeIDs returns the channel contents after consuming the wanted
// message, honouring flush semantics, or ok=false when not consumable.
func consumeIDs(q []int32, want int32, flush bool) (rest []int32, ok bool) {
	if len(q) == 0 {
		return nil, false
	}
	if !flush {
		if q[0] != want {
			return nil, false
		}
		return append([]int32(nil), q[1:]...), true
	}
	for i, m := range q {
		if m == want {
			return append([]int32(nil), q[i+1:]...), true
		}
	}
	return nil, false
}

func (m message) String() string {
	if m.Tag != "" {
		return m.Tag
	}
	return fmt.Sprintf("%d#%s", m.Node, m.Occ)
}

// gstate is one global state: the interned local-state ids of the entities
// (indexed like Places) and the channel contents as interned message-id
// queues, indexed by channel slot fromIdx*n + toIdx.
type gstate struct {
	locals []int32
	chans  [][]int32
}

// key builds the canonical global state key. Under symmetry reduction the
// key identifies the state's permutation orbit (see canonKeyLocked), falling
// back to the identity key for states no column permutation applies to.
func (s *System) key(g *gstate) string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.sym != nil {
		if k, ok := s.canonKeyLocked(g); ok {
			return k
		}
	}
	return s.binaryKeyLocked(g)
}

// binaryKeyLocked assembles the fixed-layout binary key: one 16-byte local
// state digest per place, then for each non-empty channel its slot (+1),
// queue length and the queued messages' digests, all collapsed to a final
// 16-byte digest. The layout is unambiguous (fixed-size digest blocks,
// explicit lengths, channels in ascending slot order), so distinct global
// states never share a key input.
func (s *System) binaryKeyLocked(g *gstate) string {
	buf := make([]byte, 0, 512)
	for idx, id := range g.locals {
		sum := &s.local[idx][id].sum
		buf = append(buf, sum[:]...)
	}
	for slot, q := range g.chans {
		if len(q) == 0 {
			continue
		}
		buf = binary.AppendUvarint(buf, uint64(slot)+1)
		buf = binary.AppendUvarint(buf, uint64(len(q)))
		for _, mid := range q {
			sum := &s.msgSum[mid]
			buf = append(buf, sum[:]...)
		}
	}
	sum := sha256.Sum256(buf)
	return string(sum[:16])
}

// clone copies the state with one entity local state replaced. The channel
// queues are shared (only cloneChans callers mutate them).
func (g *gstate) clone(idx int, localID int32) *gstate {
	out := &gstate{locals: append([]int32(nil), g.locals...), chans: g.chans}
	out.locals[idx] = localID
	return out
}

// cloneChans additionally copies the channel slot table for mutation.
func (g *gstate) cloneChans(idx int, localID int32) *gstate {
	out := g.clone(idx, localID)
	out.chans = append([][]int32(nil), g.chans...)
	return out
}

// source implements lts.StateSource over the product system. Next is safe
// for concurrent use (the derivation workers share one source).
type source struct {
	sys *System
}

// Next derives all global transitions of a product state.
func (src *source) Next(state any) ([]lts.GenTransition, error) {
	out, _, err := src.sys.derive(state.(*gstate), false)
	return out, err
}

// msgString renders an interned message for diagnostics, under the lock (the
// msgs slice header moves when another goroutine interns a new message).
func (s *System) msgString(id int32) string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.msgs[id].String()
}

// derive computes the global transitions of a product state:
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
// With annotate set it also returns one WitnessStep per transition — the
// concrete description (acting entity, local transition index, channel,
// message, fault) used to build replayable counterexamples. The two slices
// are index-aligned.
func (s *System) derive(g *gstate, annotate bool) ([]lts.GenTransition, []WitnessStep, error) {
	n := len(s.Places)
	var out []lts.GenTransition
	var steps []WitnessStep
	emit := func(t lts.GenTransition, st WitnessStep) {
		out = append(out, t)
		if annotate {
			steps = append(steps, st)
		}
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
		for idx, localID := range g.locals {
			ts, err := s.localTrans(idx, localID)
			if err != nil {
				return nil, nil, fmt.Errorf("entity %d: %w", s.Places[idx], err)
			}
			if len(ts) == 0 {
				continue
			}
			if len(ts) == 1 && ts[0].label.Kind == lts.LInternal {
				t := ts[0]
				next := g.clone(idx, t.to)
				emit(lts.GenTransition{Label: lts.Internal(), Key: s.key(next), To: next},
					WitnessStep{Kind: StepInternal, Place: s.Places[idx], TIndex: 0, Label: "i"})
				s.ampleHits.Add(1)
				return out, steps, nil
			}
			for _, t := range ts {
				if t.label.Kind != lts.LEvent || t.label.Ev.Kind != lotos.EvRecv {
					continue ample
				}
			}
			rests := make([][]int32, len(ts))
			for i, t := range ts {
				slot := int(t.peer)*n + idx
				if !s.channelFaultFree(slot) {
					continue ample
				}
				rest, ok := consumeIDs(g.chans[slot], t.msg, t.flush)
				if !ok {
					continue ample // a blocked receive disqualifies the whole set
				}
				rests[i] = rest
			}
			for i, t := range ts {
				slot := int(t.peer)*n + idx
				next := g.cloneChans(idx, t.to)
				next.chans[slot] = rests[i]
				var st WitnessStep
				if annotate {
					st = s.recvStep(idx, i, t)
				}
				emit(lts.GenTransition{Label: lts.Internal(), Key: s.key(next), To: next}, st)
			}
			s.ampleHits.Add(1)
			return out, steps, nil
		}
	}

	deltaReady := 0
	deltaTargets := make([]int32, len(g.locals))
	for idx, localID := range g.locals {
		ts, err := s.localTrans(idx, localID)
		if err != nil {
			return nil, nil, fmt.Errorf("entity %d: %w", s.Places[idx], err)
		}
		sawDelta := false
		for i, t := range ts {
			switch t.label.Kind {
			case lts.LDelta:
				if !sawDelta {
					sawDelta = true
					deltaReady++
					deltaTargets[idx] = t.to
				}
			case lts.LInternal:
				next := g.clone(idx, t.to)
				emit(lts.GenTransition{Label: lts.Internal(), Key: s.key(next), To: next},
					WitnessStep{Kind: StepInternal, Place: s.Places[idx], TIndex: i, Label: "i"})
			case lts.LEvent:
				ev := t.label.Ev
				switch ev.Kind {
				case lotos.EvService:
					next := g.clone(idx, t.to)
					emit(lts.GenTransition{Label: t.label, Key: s.key(next), To: next},
						WitnessStep{Kind: StepService, Place: s.Places[idx], TIndex: i, Ev: ev, Label: ev.String()})
				case lotos.EvSend:
					slot := idx*n + int(t.peer)
					q := g.chans[slot]
					if len(q) >= s.cfg.ChannelCap {
						continue // channel full: the send blocks
					}
					next := g.cloneChans(idx, t.to)
					nq := make([]int32, len(q)+1)
					copy(nq, q)
					nq[len(q)] = t.msg
					next.chans[slot] = nq
					var st WitnessStep
					if annotate {
						msg := s.msgString(t.msg)
						st = WitnessStep{
							Kind: StepSend, Place: s.Places[idx], TIndex: i, Ev: ev,
							From: s.Places[idx], To: s.Places[int(t.peer)], Msg: msg,
							Label: fmt.Sprintf("send %d->%d %s", s.Places[idx], s.Places[int(t.peer)], msg),
						}
					}
					emit(lts.GenTransition{Label: lts.Internal(), Key: s.key(next), To: next}, st)
				case lotos.EvRecv:
					slot := int(t.peer)*n + idx
					rest, ok := consumeIDs(g.chans[slot], t.msg, t.flush)
					if !ok {
						continue // no matching message consumable
					}
					next := g.cloneChans(idx, t.to)
					next.chans[slot] = rest
					var st WitnessStep
					if annotate {
						st = s.recvStep(idx, i, t)
					}
					emit(lts.GenTransition{Label: lts.Internal(), Key: s.key(next), To: next}, st)
				}
			}
		}
	}
	if deltaReady == len(g.locals) && len(g.locals) > 0 {
		next := &gstate{locals: deltaTargets, chans: g.chans}
		emit(lts.GenTransition{Label: lts.Delta(), Key: s.key(next), To: next},
			WitnessStep{Kind: StepDelta, Place: -1, TIndex: -1, Label: "delta"})
	}
	if s.cfg.Faults.Any() {
		s.faultMoves(g, annotate, emit)
	}
	return out, steps, nil
}

// channelFaultFree reports whether the medium applies no fault transitions
// to the given channel slot. The fault model is currently global — faults
// apply to every channel or none — but the per-slot shape keeps every POR
// eligibility decision local to the channels it actually touches, so a
// per-channel fault model only has to change this predicate.
func (s *System) channelFaultFree(slot int) bool {
	_ = slot
	return !s.cfg.Faults.Any()
}

// recvStep builds the witness annotation of a receive transition.
func (s *System) recvStep(idx, tIndex int, t cachedTrans) WitnessStep {
	msg := s.msgString(t.msg)
	return WitnessStep{
		Kind: StepRecv, Place: s.Places[idx], TIndex: tIndex, Ev: t.label.Ev,
		From: s.Places[int(t.peer)], To: s.Places[idx], Msg: msg,
		Label: fmt.Sprintf("recv %d->%d %s", s.Places[int(t.peer)], s.Places[idx], msg),
	}
}

// cloneFault copies the state with the channel table cloned for a medium
// fault (entity locals are untouched and shared: every mutator of a locals
// slice copies it first, so sharing is safe).
func (g *gstate) cloneFault() *gstate {
	return &gstate{locals: g.locals, chans: append([][]int32(nil), g.chans...)}
}

// faultMoves emits the medium's fault transitions of a state, one internal
// transition per applicable (channel, position, fault) triple, in
// deterministic order: channels by ascending slot; per channel loss, then
// duplication, then reordering; per fault ascending queue position.
func (s *System) faultMoves(g *gstate, annotate bool, emit func(lts.GenTransition, WitnessStep)) {
	n := len(s.Places)
	for slot, q := range g.chans {
		if len(q) == 0 {
			continue
		}
		fromP, toP := s.Places[slot/n], s.Places[slot%n]
		if s.cfg.Faults.Loss {
			for i := range q {
				next := g.cloneFault()
				nq := make([]int32, 0, len(q)-1)
				nq = append(nq, q[:i]...)
				nq = append(nq, q[i+1:]...)
				next.chans[slot] = nq
				var st WitnessStep
				if annotate {
					msg := s.msgString(q[i])
					st = WitnessStep{
						Kind: StepLoss, Place: -1, TIndex: -1, From: fromP, To: toP, Msg: msg, Index: i,
						Label: fmt.Sprintf("loss %d->%d %s@%d", fromP, toP, msg, i),
					}
				}
				emit(lts.GenTransition{Label: lts.Internal(), Key: s.key(next), To: next}, st)
			}
		}
		if s.cfg.Faults.Duplication && len(q) < s.cfg.ChannelCap {
			for i := range q {
				next := g.cloneFault()
				nq := make([]int32, 0, len(q)+1)
				nq = append(nq, q[:i+1]...)
				nq = append(nq, q[i])
				nq = append(nq, q[i+1:]...)
				next.chans[slot] = nq
				var st WitnessStep
				if annotate {
					msg := s.msgString(q[i])
					st = WitnessStep{
						Kind: StepDuplicate, Place: -1, TIndex: -1, From: fromP, To: toP, Msg: msg, Index: i,
						Label: fmt.Sprintf("dup %d->%d %s@%d", fromP, toP, msg, i),
					}
				}
				emit(lts.GenTransition{Label: lts.Internal(), Key: s.key(next), To: next}, st)
			}
		}
		if s.cfg.Faults.Reorder {
			for i := 0; i+1 < len(q); i++ {
				if q[i] == q[i+1] {
					continue // swapping identical messages is a no-op
				}
				next := g.cloneFault()
				nq := append([]int32(nil), q...)
				nq[i], nq[i+1] = nq[i+1], nq[i]
				next.chans[slot] = nq
				var st WitnessStep
				if annotate {
					st = WitnessStep{
						Kind: StepReorder, Place: -1, TIndex: -1, From: fromP, To: toP,
						Msg: s.msgString(q[i]), Index: i,
						Label: fmt.Sprintf("reorder %d->%d @%d", fromP, toP, i),
					}
				}
				emit(lts.GenTransition{Label: lts.Internal(), Key: s.key(next), To: next}, st)
			}
		}
	}
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

// rootState builds the composed initial state: every entity at its root
// expression, all channels empty.
func (s *System) rootState() *gstate {
	n := len(s.Places)
	root := &gstate{chans: make([][]int32, n*n)}
	if s.preset {
		// Quotient graphs number their initial class 0.
		root.locals = make([]int32, n)
		return root
	}
	s.mu.Lock()
	for idx, p := range s.Places {
		root.locals = append(root.locals, s.internStateLocked(idx, s.Entities[p].Root.Expr))
	}
	s.mu.Unlock()
	return root
}
