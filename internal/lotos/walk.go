package lotos

// Walk calls fn for e and then for every descendant expression of e in
// preorder. Process bodies are NOT entered (a ProcRef is a leaf); use
// WalkSpec to traverse a whole specification including definitions.
func Walk(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *Prefix:
		Walk(x.Cont, fn)
	case *Choice:
		Walk(x.L, fn)
		Walk(x.R, fn)
	case *Parallel:
		Walk(x.L, fn)
		Walk(x.R, fn)
	case *Enable:
		Walk(x.L, fn)
		Walk(x.R, fn)
	case *Disable:
		Walk(x.L, fn)
		Walk(x.R, fn)
	case *Hide:
		Walk(x.Body, fn)
	}
}

// WalkSpec calls fn for every expression node of the specification in
// preorder: first the root block's expression, then, for each process
// definition (recursively through nested WHERE blocks), the definition's
// body expression.
func WalkSpec(s *Spec, fn func(Expr)) {
	walkBlock(s.Root, fn)
}

func walkBlock(blk *DefBlock, fn func(Expr)) {
	Walk(blk.Expr, fn)
	for _, pd := range blk.Procs {
		walkBlock(pd.Body, fn)
	}
}

// Children returns the direct sub-expressions of e in syntactic order.
func Children(e Expr) []Expr {
	switch x := e.(type) {
	case *Prefix:
		return []Expr{x.Cont}
	case *Choice:
		return []Expr{x.L, x.R}
	case *Parallel:
		return []Expr{x.L, x.R}
	case *Enable:
		return []Expr{x.L, x.R}
	case *Disable:
		return []Expr{x.L, x.R}
	case *Hide:
		return []Expr{x.Body}
	default:
		return nil
	}
}

// Clone returns a deep copy of e. Node numbers are preserved: a copy of a
// node denotes the same syntactic site, which is what occurrence numbering
// (Section 3.5) requires of instantiated process bodies.
func Clone(e Expr) Expr {
	switch x := e.(type) {
	case *Stop:
		c := &Stop{}
		c.id = x.id
		return c
	case *Exit:
		c := &Exit{}
		c.id = x.id
		return c
	case *Empty:
		c := &Empty{}
		c.id = x.id
		return c
	case *ProcRef:
		c := &ProcRef{Name: x.Name, Occ: x.Occ, Def: x.Def}
		c.id = x.id
		return c
	case *Prefix:
		c := &Prefix{Ev: x.Ev, Cont: Clone(x.Cont)}
		c.id = x.id
		return c
	case *Choice:
		c := &Choice{L: Clone(x.L), R: Clone(x.R)}
		c.id = x.id
		return c
	case *Parallel:
		sync := append([]string(nil), x.Sync...)
		c := &Parallel{L: Clone(x.L), R: Clone(x.R), Kind: x.Kind, Sync: sync}
		c.id = x.id
		return c
	case *Enable:
		c := &Enable{L: Clone(x.L), R: Clone(x.R)}
		c.id = x.id
		return c
	case *Disable:
		c := &Disable{L: Clone(x.L), R: Clone(x.R)}
		c.id = x.id
		return c
	case *Hide:
		c := &Hide{Gates: append([]string(nil), x.Gates...), Body: Clone(x.Body)}
		c.id = x.id
		return c
	}
	return nil
}

// CloneSpec returns a deep copy of a specification.
func CloneSpec(s *Spec) *Spec {
	return &Spec{Root: cloneBlock(s.Root)}
}

func cloneBlock(blk *DefBlock) *DefBlock {
	out := &DefBlock{Expr: Clone(blk.Expr)}
	for _, pd := range blk.Procs {
		out.Procs = append(out.Procs, &ProcDef{ID: pd.ID, Name: pd.Name, Body: cloneBlock(pd.Body)})
	}
	return out
}

// Equal reports structural equality of two expressions, ignoring node
// numbers and process-reference occurrence stamps.
func Equal(a, b Expr) bool {
	switch x := a.(type) {
	case *Stop:
		_, ok := b.(*Stop)
		return ok
	case *Exit:
		_, ok := b.(*Exit)
		return ok
	case *Empty:
		_, ok := b.(*Empty)
		return ok
	case *ProcRef:
		y, ok := b.(*ProcRef)
		return ok && x.Name == y.Name
	case *Prefix:
		y, ok := b.(*Prefix)
		return ok && x.Ev == y.Ev && Equal(x.Cont, y.Cont)
	case *Choice:
		y, ok := b.(*Choice)
		return ok && Equal(x.L, y.L) && Equal(x.R, y.R)
	case *Parallel:
		y, ok := b.(*Parallel)
		return ok && x.Kind == y.Kind && sameStrings(x.Sync, y.Sync) &&
			Equal(x.L, y.L) && Equal(x.R, y.R)
	case *Enable:
		y, ok := b.(*Enable)
		return ok && Equal(x.L, y.L) && Equal(x.R, y.R)
	case *Disable:
		y, ok := b.(*Disable)
		return ok && Equal(x.L, y.L) && Equal(x.R, y.R)
	case *Hide:
		y, ok := b.(*Hide)
		return ok && sameStrings(x.Gates, y.Gates) && Equal(x.Body, y.Body)
	}
	return false
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

// EqualSpec reports structural equality of two specifications (same process
// names in the same order, structurally equal bodies).
func EqualSpec(a, b *Spec) bool {
	return equalBlock(a.Root, b.Root)
}

func equalBlock(a, b *DefBlock) bool {
	if !Equal(a.Expr, b.Expr) || len(a.Procs) != len(b.Procs) {
		return false
	}
	for i := range a.Procs {
		if a.Procs[i].Name != b.Procs[i].Name || !equalBlock(a.Procs[i].Body, b.Procs[i].Body) {
			return false
		}
	}
	return true
}
