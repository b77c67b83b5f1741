package lts

import (
	"errors"
	"fmt"
	"strconv"

	"repro/internal/lotos"
)

// ErrUnguardedRecursion is reported when deriving the transitions of an
// expression requires unfolding process instantiations beyond the configured
// bound without reaching an action prefix — the symptom of an unguarded
// definition such as "PROC A = A END".
var ErrUnguardedRecursion = errors.New("lts: unguarded recursion (unfold bound exceeded)")

// DefaultUnfoldBound is the default number of nested process unfoldings
// allowed while deriving the transitions of a single expression.
const DefaultUnfoldBound = 128

// Env supplies process definitions and instantiation to the transition
// rules. The zero value is not usable; construct with NewEnv.
type Env struct {
	res *lotos.Resolution
	// UnfoldBound limits nested unfoldings within one Transitions call.
	UnfoldBound int
	// memo caches instantiated process bodies keyed by definition pointer
	// and occurrence, so repeated exploration of recursive specifications
	// does not re-clone bodies.
	memo map[memoKey]lotos.Expr
}

type memoKey struct {
	def *lotos.ProcDef
	occ string
}

// NewEnv builds an environment from a resolved specification.
func NewEnv(res *lotos.Resolution) *Env {
	return &Env{res: res, UnfoldBound: DefaultUnfoldBound, memo: map[memoKey]lotos.Expr{}}
}

// EnvFor resolves the specification and builds an environment in one step.
func EnvFor(sp *lotos.Spec) (*Env, error) {
	res, err := lotos.Resolve(sp)
	if err != nil {
		return nil, err
	}
	return NewEnv(res), nil
}

// Instantiate returns the body of the process referenced by ref, cloned and
// stamped with the occurrence number of the newly created instance:
// parent occurrence (OccRoot when the reference sits at the root level)
// extended with the node number of the call site, "occ/N" (Section 3.5).
func (env *Env) Instantiate(ref *lotos.ProcRef) (lotos.Expr, error) {
	def := ref.Def
	if def == nil {
		def = env.res.Def(ref)
	}
	if def == nil {
		return nil, fmt.Errorf("lts: unresolved process reference %s", ref.Name)
	}
	parent := ref.Occ
	if parent == "" {
		parent = lotos.OccRoot
	}
	occ := parent + "/" + strconv.Itoa(ref.ID())
	key := memoKey{def: def, occ: occ}
	if e, ok := env.memo[key]; ok {
		return e, nil
	}
	body := lotos.Clone(def.Body.Expr)
	stampOccurrence(body, occ)
	env.memo[key] = body
	return body, nil
}

// ForgetInstances empties the instantiation memo, releasing every body
// instantiated so far; later instantiations clone afresh.
func (env *Env) ForgetInstances() { env.memo = map[memoKey]lotos.Expr{} }

// stampOccurrence marks every symbolic message event and every untagged
// process reference of the instantiated body with the instance occurrence.
func stampOccurrence(e lotos.Expr, occ string) {
	lotos.Walk(e, func(x lotos.Expr) {
		switch n := x.(type) {
		case *lotos.Prefix:
			if n.Ev.IsMessage() && n.Ev.Tag == "" && n.Ev.Occ == lotos.OccSymbolic {
				n.Ev.Occ = occ
			}
		case *lotos.ProcRef:
			if n.Occ == "" {
				n.Occ = occ
			}
		}
	})
}

// Transitions derives all single-step transitions of e under the
// environment. The result order is deterministic (left operands first).
func (env *Env) Transitions(e lotos.Expr) ([]Transition, error) {
	bound := env.UnfoldBound
	if bound <= 0 {
		bound = DefaultUnfoldBound
	}
	return env.trans(e, bound)
}

func (env *Env) trans(e lotos.Expr, fuel int) ([]Transition, error) {
	switch x := e.(type) {
	case *lotos.Stop:
		return nil, nil

	case *lotos.Exit, *lotos.Empty:
		// Empty is the derivation-time neutral element and behaves as exit.
		return []Transition{{Label: Delta(), To: lotos.Halt()}}, nil

	case *lotos.Prefix:
		return []Transition{{Label: EventLabel(x.Ev), To: x.Cont}}, nil

	case *lotos.Choice:
		lt, err := env.trans(x.L, fuel)
		if err != nil {
			return nil, err
		}
		rt, err := env.trans(x.R, fuel)
		if err != nil {
			return nil, err
		}
		return append(lt, rt...), nil

	case *lotos.Parallel:
		return env.transParallel(x, fuel)

	case *lotos.Enable:
		lt, err := env.trans(x.L, fuel)
		if err != nil {
			return nil, err
		}
		var out []Transition
		for _, t := range lt {
			if t.Label.Kind == LDelta {
				// exit >> B becomes an internal step into B (law E1).
				out = append(out, Transition{Label: Internal(), To: x.R})
			} else {
				out = append(out, Transition{Label: t.Label, To: lotos.Enb(t.To, x.R)})
			}
		}
		return out, nil

	case *lotos.Disable:
		lt, err := env.trans(x.L, fuel)
		if err != nil {
			return nil, err
		}
		var out []Transition
		for _, t := range lt {
			if t.Label.Kind == LDelta {
				// Successful termination of the normal part discards the
				// disabling part.
				out = append(out, Transition{Label: Delta(), To: t.To})
			} else {
				out = append(out, Transition{Label: t.Label, To: lotos.Dis(t.To, x.R)})
			}
		}
		rt, err := env.trans(x.R, fuel)
		if err != nil {
			return nil, err
		}
		// Any initial action of the disabling part interrupts the normal part.
		out = append(out, rt...)
		return out, nil

	case *lotos.Hide:
		bt, err := env.trans(x.Body, fuel)
		if err != nil {
			return nil, err
		}
		var out []Transition
		for _, t := range bt {
			to := lotos.HideIn(x.Gates, t.To)
			label := t.Label
			if label.Kind == LEvent && x.Hidden(label.Ev) {
				label = Internal()
			}
			out = append(out, Transition{Label: label, To: to})
		}
		return out, nil

	case *lotos.ProcRef:
		if fuel <= 0 {
			return nil, ErrUnguardedRecursion
		}
		body, err := env.Instantiate(x)
		if err != nil {
			return nil, err
		}
		return env.trans(body, fuel-1)
	}
	return nil, fmt.Errorf("lts: no transition rule for %T", e)
}

func (env *Env) transParallel(x *lotos.Parallel, fuel int) ([]Transition, error) {
	lt, err := env.trans(x.L, fuel)
	if err != nil {
		return nil, err
	}
	rt, err := env.trans(x.R, fuel)
	if err != nil {
		return nil, err
	}
	rebuild := func(l, r lotos.Expr) lotos.Expr {
		p := &lotos.Parallel{L: l, R: r, Kind: x.Kind, Sync: x.Sync}
		p.SetID(x.ID())
		return p
	}
	var out []Transition
	// Independent moves of the left side.
	for _, t := range lt {
		if t.Label.Kind == LDelta || (t.Label.Kind == LEvent && x.SyncsOn(t.Label.Ev)) {
			continue
		}
		out = append(out, Transition{Label: t.Label, To: rebuild(t.To, x.R)})
	}
	// Independent moves of the right side.
	for _, t := range rt {
		if t.Label.Kind == LDelta || (t.Label.Kind == LEvent && x.SyncsOn(t.Label.Ev)) {
			continue
		}
		out = append(out, Transition{Label: t.Label, To: rebuild(x.L, t.To)})
	}
	// Synchronized moves: matching gates, plus mandatory δ synchronization.
	for _, a := range lt {
		for _, b := range rt {
			switch {
			case a.Label.Kind == LDelta && b.Label.Kind == LDelta:
				out = append(out, Transition{Label: Delta(), To: rebuild(a.To, b.To)})
			case a.Label.Kind == LEvent && b.Label.Kind == LEvent &&
				x.SyncsOn(a.Label.Ev) && a.Label.Key() == b.Label.Key():
				out = append(out, Transition{Label: a.Label, To: rebuild(a.To, b.To)})
			}
		}
	}
	return out, nil
}
