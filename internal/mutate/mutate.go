// Package mutate implements protocol mutation testing: systematic fault
// injection into protocol entity specifications. Each mutation models a
// protocol design error of the classes the paper's introduction says
// analysis techniques must detect — "deadlocks, unspecified receptions and
// non-executable interactions" — by perturbing one entity at a time:
// dropping a synchronization message send or receive, swapping the order of
// consecutive actions, misdirecting a message to a different place, or
// replacing a service primitive's continuation.
//
// The companion experiment (E16 in EXPERIMENTS.md) derives a protocol,
// generates all applicable mutants, and checks that the Section-5 verifier
// rejects them — the verifier's "mutation kill rate". Mutants that survive
// must be semantically equivalent to the original (e.g. dropping a message
// the optimizer also proves redundant).
package mutate

import (
	"fmt"
	"sort"

	"repro/internal/lotos"
)

// Kind classifies a mutation operator.
type Kind string

const (
	// DropSend deletes one send interaction (a lost notification: the
	// peer's receive becomes an unspecified reception / deadlock).
	DropSend Kind = "drop-send"
	// DropRecv deletes one receive interaction (the entity no longer waits:
	// ordering constraints are lost, and the message is never consumed).
	DropRecv Kind = "drop-recv"
	// SwapPrefix exchanges two consecutive prefixed actions (a local
	// ordering error).
	SwapPrefix Kind = "swap-prefix"
	// Misdirect retargets one send to a different place (a routing error).
	Misdirect Kind = "misdirect"
)

// Mutant is one mutated protocol.
type Mutant struct {
	// Kind is the mutation operator.
	Kind Kind
	// Place is the mutated entity.
	Place int
	// Site is the node index (per-entity preorder position) of the
	// mutation, for reporting.
	Site int
	// Description says what changed.
	Description string
	// Entities is the full entity map with the mutated entity replacing
	// the original (other entities are shared, unmodified).
	Entities map[int]*lotos.Spec
}

// Generate enumerates every applicable single-point mutation of the entity
// set. The places slice of the result is deterministic (ascending place,
// preorder site, operator order).
func Generate(entities map[int]*lotos.Spec) []Mutant {
	var out []Mutant
	places := make([]int, 0, len(entities))
	for p := range entities {
		places = append(places, p)
	}
	sort.Ints(places)
	for _, p := range places {
		out = append(out, mutateEntity(entities, p)...)
	}
	return out
}

// mutateEntity generates the mutants that modify one entity.
func mutateEntity(entities map[int]*lotos.Spec, place int) []Mutant {
	var out []Mutant
	original := entities[place]

	// Collect candidate sites by walking a pristine clone; each mutation
	// re-clones so mutants are independent.
	type site struct {
		idx int
		ev  lotos.Event
	}
	var sends, recvs, prefixPairs []site
	idx := 0
	lotos.WalkSpec(original, func(e lotos.Expr) {
		idx++
		pfx, ok := e.(*lotos.Prefix)
		if !ok {
			return
		}
		switch pfx.Ev.Kind {
		case lotos.EvSend:
			sends = append(sends, site{idx: idx, ev: pfx.Ev})
		case lotos.EvRecv:
			recvs = append(recvs, site{idx: idx, ev: pfx.Ev})
		}
		if inner, ok := pfx.Cont.(*lotos.Prefix); ok && inner.Ev.Kind != lotos.EvInternal {
			prefixPairs = append(prefixPairs, site{idx: idx, ev: pfx.Ev})
		}
	})

	build := func(kind Kind, s site, desc string, edit func(*lotos.Prefix) bool) {
		clone := lotos.CloneSpec(original)
		i := 0
		applied := false
		lotos.WalkSpec(clone, func(e lotos.Expr) {
			i++
			if i != s.idx || applied {
				return
			}
			if pfx, ok := e.(*lotos.Prefix); ok {
				applied = edit(pfx)
			}
		})
		if !applied {
			return
		}
		m := Mutant{
			Kind:        kind,
			Place:       place,
			Site:        s.idx,
			Description: desc,
			Entities:    map[int]*lotos.Spec{},
		}
		for p, sp := range entities {
			if p == place {
				m.Entities[p] = clone
			} else {
				m.Entities[p] = sp
			}
		}
		out = append(out, m)
	}

	for _, s := range sends {
		s := s
		build(DropSend, s,
			fmt.Sprintf("entity %d: drop %s", place, s.ev),
			func(pfx *lotos.Prefix) bool {
				// Deleting the send: the prefix becomes its continuation;
				// easiest in place is to neutralize the event into an
				// internal action (same control flow, no message).
				pfx.Ev = lotos.InternalEvent()
				return true
			})
		if other := otherPlace(entities, place, s.ev.Place); other != 0 {
			ev := s.ev
			ev.Place = other
			build(Misdirect, s,
				fmt.Sprintf("entity %d: misdirect %s to place %d", place, s.ev, other),
				func(pfx *lotos.Prefix) bool {
					pfx.Ev = ev
					return true
				})
		}
	}
	for _, s := range recvs {
		s := s
		build(DropRecv, s,
			fmt.Sprintf("entity %d: drop %s", place, s.ev),
			func(pfx *lotos.Prefix) bool {
				pfx.Ev = lotos.InternalEvent()
				return true
			})
	}
	for _, s := range prefixPairs {
		s := s
		build(SwapPrefix, s,
			fmt.Sprintf("entity %d: swap %s with its successor", place, s.ev),
			func(pfx *lotos.Prefix) bool {
				inner, ok := pfx.Cont.(*lotos.Prefix)
				if !ok {
					return false
				}
				pfx.Ev, inner.Ev = inner.Ev, pfx.Ev
				return true
			})
	}
	return out
}

// otherPlace picks a deterministic place different from both the entity and
// the original target (0 when none exists).
func otherPlace(entities map[int]*lotos.Spec, self, target int) int {
	places := make([]int, 0, len(entities))
	for p := range entities {
		places = append(places, p)
	}
	sort.Ints(places)
	for _, p := range places {
		if p != self && p != target {
			return p
		}
	}
	return 0
}
