package lotos

import (
	"fmt"
	"sort"
)

// Resolution is the result of name resolution over a specification: every
// process reference is bound to the lexically visible process definition of
// the same name, following the nesting of WHERE blocks.
type Resolution struct {
	// Refs maps each *ProcRef node to its definition.
	Refs map[*ProcRef]*ProcDef
	// Defs lists all process definitions of the specification in
	// declaration order (outer blocks first).
	Defs []*ProcDef
	// ByName maps a process name to its definitions (several definitions
	// of the same name may exist in disjoint scopes).
	ByName map[string][]*ProcDef
}

// Def returns the definition bound to ref, or nil.
func (r *Resolution) Def(ref *ProcRef) *ProcDef { return r.Refs[ref] }

// Resolve performs name resolution on the specification. It reports an
// error for references to undefined processes and for duplicate process
// names within one WHERE block.
func Resolve(s *Spec) (*Resolution, error) {
	res := &Resolution{
		Refs:   map[*ProcRef]*ProcDef{},
		ByName: map[string][]*ProcDef{},
	}
	if err := resolveBlock(s.Root, nil, res); err != nil {
		return nil, err
	}
	return res, nil
}

// scope is a linked lexical scope of process definitions.
type scope struct {
	parent *scope
	defs   map[string]*ProcDef
}

func (sc *scope) lookup(name string) *ProcDef {
	for s := sc; s != nil; s = s.parent {
		if d, ok := s.defs[name]; ok {
			return d
		}
	}
	return nil
}

func resolveBlock(blk *DefBlock, parent *scope, res *Resolution) error {
	sc := &scope{parent: parent, defs: map[string]*ProcDef{}}
	for _, pd := range blk.Procs {
		if _, dup := sc.defs[pd.Name]; dup {
			return fmt.Errorf("process %s defined twice in the same WHERE block", pd.Name)
		}
		sc.defs[pd.Name] = pd
		res.Defs = append(res.Defs, pd)
		res.ByName[pd.Name] = append(res.ByName[pd.Name], pd)
	}
	var err error
	Walk(blk.Expr, func(e Expr) {
		if err != nil {
			return
		}
		if ref, ok := e.(*ProcRef); ok {
			def := sc.lookup(ref.Name)
			if def == nil {
				err = fmt.Errorf("undefined process %s", ref.Name)
				return
			}
			ref.Def = def
			res.Refs[ref] = def
		}
	})
	if err != nil {
		return err
	}
	// Process bodies see the definitions of their own block (mutual
	// recursion within one WHERE) and of all enclosing blocks.
	for _, pd := range blk.Procs {
		if err := resolveBlock(pd.Body, sc, res); err != nil {
			return fmt.Errorf("in process %s: %w", pd.Name, err)
		}
	}
	return nil
}

// Number assigns preorder node numbers (attribute N of Section 4.1) to every
// expression node of the specification, starting at 1: first the root
// block's expression, then each process definition body in declaration
// order, recursing through nested WHERE blocks. It returns the total number
// of nodes.
func Number(s *Spec) int {
	n := 0
	numberBlock(s.Root, &n)
	return n
}

func numberBlock(blk *DefBlock, n *int) {
	Walk(blk.Expr, func(e Expr) {
		*n++
		e.SetID(*n)
	})
	for _, pd := range blk.Procs {
		*n++
		pd.ID = *n
		numberBlock(pd.Body, n)
	}
}

// Places returns the sorted set of all service access points mentioned by
// service-primitive events of the specification — the attribute ALL of the
// paper when the specification is a service specification.
func Places(s *Spec) []int {
	set := map[int]bool{}
	WalkSpec(s, func(e Expr) {
		if p, ok := e.(*Prefix); ok && p.Ev.Kind == EvService {
			set[p.Ev.Place] = true
		}
	})
	out := make([]int, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// ServiceEvents returns all distinct service-primitive events of the
// specification, sorted by (place, name).
func ServiceEvents(s *Spec) []Event {
	seen := map[string]Event{}
	WalkSpec(s, func(e Expr) {
		if p, ok := e.(*Prefix); ok && p.Ev.Kind == EvService {
			seen[p.Ev.Gate()] = p.Ev
		}
	})
	out := make([]Event, 0, len(seen))
	for _, ev := range seen {
		out = append(out, ev)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Place != out[j].Place {
			return out[i].Place < out[j].Place
		}
		return out[i].Name < out[j].Name
	})
	return out
}
