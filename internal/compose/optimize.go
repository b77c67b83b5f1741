package compose

import (
	"sort"

	"repro/internal/core"
	"repro/internal/lotos"
)

// This file implements the message optimizer the paper defers to [Khen 89]:
// "the derivation rules may lead sometimes to a local exchange of messages
// ... [Khen 89] presents some methods to eliminate non-essential messages".
//
// Instead of syntactic redundancy criteria, the optimizer here is
// semantics-driven and self-verifying: it removes one message group at a
// time (all sends and receives carrying one message identification) and
// keeps the removal only if the composed system still provides the service
// (the same check as Verify). The result is a protocol that is correct by
// the same standard as the original, with a message count that is locally
// minimal with respect to whole-group removal.

// OptimizeResult reports what the optimizer achieved.
type OptimizeResult struct {
	// Entities are the optimized protocol entities.
	Entities map[int]*lotos.Spec
	// Removed lists the message identifications whose send/receive groups
	// were eliminated, in removal order.
	Removed []int
	// Tried is the number of candidate groups examined.
	Tried int
	// Before and After count send interactions in the entity texts.
	Before, After int
}

// OptimizeMessages removes non-essential synchronization messages from the
// derived entities of a service: it is
// NewVerifier(service, entities, nil).OptimizeMessages(opts).
func OptimizeMessages(service *lotos.Spec, entities map[int]*lotos.Spec, opts VerifyOptions) (*OptimizeResult, error) {
	return NewVerifier(service, entities, nil).OptimizeMessages(opts)
}

// OptimizeMessages removes non-essential synchronization messages from the
// Verifier's entities. Each distinct message identification is tentatively
// removed (every send and every matching receive of that identification,
// across all entities); the removal is kept when the composed system still
// passes Verify against the service. Candidates are processed in ascending
// identification order, re-verifying after each accepted removal, so the
// output is deterministic. Every candidate is checked against the
// Verifier's service graph, so the service is explored once.
//
// The verification options bound the (repeated) correctness checks; they
// should be at least as strong as the check used to accept the original
// derivation.
func (v *Verifier) OptimizeMessages(opts VerifyOptions) (*OptimizeResult, error) {
	res := &OptimizeResult{
		Entities: cloneEntities(v.entities),
		Before:   countSends(v.entities),
	}
	// The unoptimized protocol must analyze cleanly; a failure here is a
	// real error, not a rejected candidate.
	if _, err := v.Verify(opts); err != nil {
		return nil, err
	}
	for {
		ids := messageIDs(res.Entities)
		improved := false
		for _, id := range ids {
			trial := removeMessage(res.Entities, id)
			res.Tried++
			rep, err := v.withEntities(trial).Verify(opts)
			if err != nil {
				// A removal may make an entity unanalyzable (e.g. a
				// leading Proc_Synch receive guarded a recursive call and
				// the recursion became unguarded): reject the candidate.
				continue
			}
			if rep.Ok() {
				res.Entities = trial
				res.Removed = append(res.Removed, id)
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	res.After = countSends(res.Entities)
	return res, nil
}

func cloneEntities(entities map[int]*lotos.Spec) map[int]*lotos.Spec {
	out := make(map[int]*lotos.Spec, len(entities))
	for p, sp := range entities {
		out[p] = lotos.CloneSpec(sp)
	}
	return out
}

func countSends(entities map[int]*lotos.Spec) int {
	n := 0
	for _, sp := range entities {
		lotos.WalkSpec(sp, func(e lotos.Expr) {
			if pfx, ok := e.(*lotos.Prefix); ok && pfx.Ev.Kind == lotos.EvSend {
				n++
			}
		})
	}
	return n
}

// messageIDs collects the distinct numeric message identifications used by
// the entities, ascending.
func messageIDs(entities map[int]*lotos.Spec) []int {
	set := map[int]bool{}
	for _, sp := range entities {
		lotos.WalkSpec(sp, func(e lotos.Expr) {
			if pfx, ok := e.(*lotos.Prefix); ok && pfx.Ev.IsMessage() && pfx.Ev.Tag == "" {
				set[pfx.Ev.Node] = true
			}
		})
	}
	out := make([]int, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// removeMessage returns a copy of the entities with every send and receive
// of the given message identification eliminated and the specifications
// re-normalized.
func removeMessage(entities map[int]*lotos.Spec, id int) map[int]*lotos.Spec {
	out := make(map[int]*lotos.Spec, len(entities))
	for p, sp := range entities {
		c := lotos.CloneSpec(sp)
		stripBlock(c.Root, id)
		core.SimplifySpec(c)
		out[p] = c
	}
	return out
}

func stripBlock(blk *lotos.DefBlock, id int) {
	blk.Expr = strip(blk.Expr, id)
	for _, pd := range blk.Procs {
		stripBlock(pd.Body, id)
	}
}

// strip rewrites e with every prefix of the doomed message removed: the
// prefix collapses into its continuation (a terminated continuation becomes
// the neutral Empty so the simplifier can elide the whole position).
func strip(e lotos.Expr, id int) lotos.Expr {
	switch x := e.(type) {
	case *lotos.Prefix:
		if x.Ev.IsMessage() && x.Ev.Tag == "" && x.Ev.Node == id {
			switch x.Cont.(type) {
			case *lotos.Exit, *lotos.Empty:
				return lotos.Emp()
			default:
				return strip(x.Cont, id)
			}
		}
		x.Cont = strip(x.Cont, id)
		return x
	case *lotos.Choice:
		x.L = strip(x.L, id)
		x.R = strip(x.R, id)
		return x
	case *lotos.Parallel:
		x.L = strip(x.L, id)
		x.R = strip(x.R, id)
		return x
	case *lotos.Enable:
		x.L = strip(x.L, id)
		x.R = strip(x.R, id)
		return x
	case *lotos.Disable:
		x.L = strip(x.L, id)
		x.R = strip(x.R, id)
		return x
	case *lotos.Hide:
		x.Body = strip(x.Body, id)
		return x
	default:
		return e
	}
}
