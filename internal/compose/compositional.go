// Quotient-before-compose: the compositional verification path.
//
// The monolithic path explores the product of the entities' full local
// state spaces. But the product construction factors through the entity
// LTSs, and weak bisimilarity is a congruence for every operator the
// product applies — parallel composition with synchronization on the
// message gates and on δ, and hiding of the message interactions. Replacing
// each entity LTS with its weak-bisimulation quotient — the minimized layer
// of the entity's compiled fsm.Machine, message events kept observable —
// therefore yields a product that is
// weakly bisimilar to the monolithic one: every verdict the report derives
// from weak equivalence — the bisimulation check against the service, the
// bounded weak-trace comparison — is identical, over a state space that is
// often dramatically smaller (recursive entities in particular explore one
// state per syntactic unfolding, which the quotient collapses).
//
// Deadlock detection survives the quotient in the direction that matters:
// a monolithic deadlock projects to a quotient-product deadlock (a
// deadlocked global state enables no entity move, so every entity offers
// only blocked sends/receives; its class offers exactly the same labels,
// blocked by the same channel contents). The converse can fail in theory —
// the weak quotient maps a τ-divergent entity state to a deadlocked class —
// so a non-conformant compositional verdict is always re-verified
// monolithically (see verify.go), which also reproduces the monolithic
// counterexample byte for byte. A spurious compositional deadlock costs
// time, never correctness.
package compose

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro/internal/fsm"
	"repro/internal/lotos"
)

// EntityProvider supplies the compiled machine of one place — the
// injection point for artifact caches layered above this package. It
// returns the machine, or the error that stopped its compilation (a
// *fsm.CompileError with Cap set means the entity's state space exceeds
// maxStates); the wall time compiling it took for this call; and whether it
// was served from a cache instead (buildNanos is then 0). The specification
// passed in is private to the call, and fsm.Compile explores its own clone,
// so machines alias nothing live and are safe to cache and share.
type EntityProvider func(place int, sp *lotos.Spec, maxStates int) (m *fsm.Machine, buildNanos int64, reused bool, err error)

// compileEntity is the uncached EntityProvider: one fsm.Compile per call.
func compileEntity(place int, sp *lotos.Spec, maxStates int) (*fsm.Machine, int64, bool, error) {
	start := time.Now()
	m, err := fsm.Compile(place, sp, fsm.Config{MaxStates: maxStates})
	return m, time.Since(start).Nanoseconds(), false, err
}

// NewCompositional prepares a product system over compiled entities: every
// local state table is preloaded from the machines' minimized layers
// (derived=true), so product exploration never touches the SOS
// interpreter. State keys stay content-derived — each local state
// contributes the digest of its class representative's canonical
// expression — so serial and parallel exploration agree on the key set
// exactly as in the monolithic system.
func NewCompositional(entities map[int]*lotos.Spec, machines map[int]*fsm.Machine, cfg Config) (*System, error) {
	if cfg.ChannelCap <= 0 {
		cfg.ChannelCap = DefaultChannelCap
	}
	sys := &System{
		Entities: entities,
		placeIdx: map[int]int{},
		cfg:      cfg,
		// Quotient classes carry no syntax to detect columns in, so the
		// symmetry reduction never applies to a preset system.
		red:    cfg.effectiveReductions() &^ RedSymmetry,
		msgIDs: map[message]int32{},
		preset: true,
	}
	for p := range entities {
		sys.Places = append(sys.Places, p)
	}
	sort.Ints(sys.Places)
	for idx, p := range sys.Places {
		if machines[p] == nil {
			return nil, fmt.Errorf("compose: no compiled machine for place %d", p)
		}
		sys.placeIdx[p] = idx
	}
	for _, p := range sys.Places {
		m := machines[p]
		intern := make(map[string]int32, m.MinStates())
		states := make([]localState, m.MinStates())
		for c := range states {
			key := m.MinKeys[c]
			intern[key] = int32(c)
			states[c] = localState{sum: digest16([]byte(key)), derived: true}
			lo, hi := m.MinOff[c], m.MinOff[c+1]
			trans := make([]cachedTrans, 0, hi-lo)
			for e := lo; e < hi; e++ {
				ct := cachedTrans{label: m.MinLabel(e), to: m.MinTo[e], peer: -1, msg: -1}
				switch op := m.MinOps[e]; op {
				case fsm.OpSend, fsm.OpRecv, fsm.OpRecvFlush:
					ev := m.MinEvents[e]
					pi, ok := sys.placeIdx[ev.Place]
					if !ok {
						return nil, fmt.Errorf("compose: entity %d message event %s targets unknown place %d", p, ev, ev.Place)
					}
					ct.peer = int32(pi)
					ct.msg = sys.msgIDLocked(msgOf(ev))
					ct.flush = op == fsm.OpRecvFlush
				}
				trans = append(trans, ct)
			}
			states[c].trans = trans
		}
		sys.intern = append(sys.intern, intern)
		sys.local = append(sys.local, states)
	}
	return sys, nil
}

// EntityQuotientStat reports one entity's quotient-before-compose numbers.
type EntityQuotientStat struct {
	// Place is the entity's protocol place.
	Place int `json:"place"`
	// ExactStates / QuotientStates are the entity LTS sizes before and
	// after the weak quotient.
	ExactStates    int `json:"exactStates"`
	QuotientStates int `json:"quotientStates"`
	// ExactTransitions / QuotientTransitions likewise.
	ExactTransitions    int `json:"exactTransitions"`
	QuotientTransitions int `json:"quotientTransitions"`
	// BuildNanos is the compile wall time (0 for cache hits).
	BuildNanos int64 `json:"buildNanos"`
	// Reused marks an artifact served from a content-addressed cache.
	Reused bool `json:"reused"`
}

// CompositionalStats describes the quotient-before-compose pipeline of one
// verification: per-entity quotient sizes and build times, the size and
// exploration time of the product over quotients, artifact reuse, and —
// when the monolithic path produced the final verdict — why.
type CompositionalStats struct {
	// Entities holds one row per place, in place order.
	Entities []EntityQuotientStat `json:"entities"`
	// ProductStates / ProductTransitions size the product over quotients.
	ProductStates      int `json:"productStates"`
	ProductTransitions int `json:"productTransitions"`
	// BuildNanos sums the per-entity compile wall time;
	// ProductNanos is the quotient-product exploration wall time.
	BuildNanos   int64 `json:"buildNanos"`
	ProductNanos int64 `json:"productNanos"`
	// Reused counts entities served from an artifact cache.
	Reused int `json:"reused"`
	// Fallback, when non-empty, explains why the final verdict came from
	// the monolithic path: an entity state space over the cap, a truncated
	// quotient product, or a non-conformant verdict re-verified for its
	// exact (byte-identical, replayable) counterexample.
	Fallback string `json:"fallback,omitempty"`
}

// ExactStatesTotal sums the entities' pre-quotient state counts.
func (c *CompositionalStats) ExactStatesTotal() int {
	n := 0
	for _, e := range c.Entities {
		n += e.ExactStates
	}
	return n
}

// QuotientStatesTotal sums the entities' post-quotient state counts.
func (c *CompositionalStats) QuotientStatesTotal() int {
	n := 0
	for _, e := range c.Entities {
		n += e.QuotientStates
	}
	return n
}

// ReuseRatio is the fraction of entities served from an artifact cache.
func (c *CompositionalStats) ReuseRatio() float64 {
	if len(c.Entities) == 0 {
		return 0
	}
	return float64(c.Reused) / float64(len(c.Entities))
}

// MarshalJSON encodes the fields plus the derived "reuseRatio".
func (c CompositionalStats) MarshalJSON() ([]byte, error) {
	type fields CompositionalStats
	return json.Marshal(struct {
		fields
		ReuseRatio float64 `json:"reuseRatio"`
	}{fields(c), c.ReuseRatio()})
}
