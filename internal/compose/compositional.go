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

import "encoding/json"

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
	// Reused marks a machine whose minimized layer an earlier call on the
	// same machine cache had built.
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
	// Reused counts entities served from a cache (see EntityQuotientStat).
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

// ReuseRatio is the fraction of entities served from a cache.
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
