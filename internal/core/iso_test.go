package core

import (
	"slices"
	"testing"

	"repro/internal/lotos"
)

// msgIdent is a message event's identification: its tag, or its node and
// occurrence.
type msgIdent struct {
	node     int
	occ, tag string
}

func msgIdentOf(e lotos.Event) msgIdent {
	if e.Tag != "" {
		return msgIdent{tag: e.Tag}
	}
	return msgIdent{node: e.Node, occ: e.Occ}
}

// isoMatcher matches expressions structurally up to one consistent
// bijection of message identifications, which it grows as it goes. Kinds,
// peers, service primitives, operators and process names must match
// exactly, and empty matches exit. The derived entities are compared with
// the paper's listings this way, since the paper numbers messages
// differently.
type isoMatcher struct{ fwd, rev map[msgIdent]msgIdent }

func newIsoMatcher() *isoMatcher {
	return &isoMatcher{fwd: map[msgIdent]msgIdent{}, rev: map[msgIdent]msgIdent{}}
}

// isomorphic reports whether two specifications match with one bijection
// across the root expression and every process body, and with the same
// block structure and process names.
func isomorphic(a, b *lotos.Spec) bool {
	return newIsoMatcher().block(a.Root, b.Root)
}

func (m *isoMatcher) block(a, b *lotos.DefBlock) bool {
	if !m.expr(a.Expr, b.Expr) || len(a.Procs) != len(b.Procs) {
		return false
	}
	for i := range a.Procs {
		if a.Procs[i].Name != b.Procs[i].Name || !m.block(a.Procs[i].Body, b.Procs[i].Body) {
			return false
		}
	}
	return true
}

func (m *isoMatcher) expr(a, b lotos.Expr) bool {
	switch x := a.(type) {
	case *lotos.Stop:
		_, ok := b.(*lotos.Stop)
		return ok
	case *lotos.Exit, *lotos.Empty:
		switch b.(type) {
		case *lotos.Empty, *lotos.Exit:
			return true
		}
		return false
	case *lotos.ProcRef:
		y, ok := b.(*lotos.ProcRef)
		return ok && x.Name == y.Name
	case *lotos.Prefix:
		y, ok := b.(*lotos.Prefix)
		return ok && m.event(x.Ev, y.Ev) && m.expr(x.Cont, y.Cont)
	case *lotos.Choice:
		y, ok := b.(*lotos.Choice)
		return ok && m.expr(x.L, y.L) && m.expr(x.R, y.R)
	case *lotos.Parallel:
		y, ok := b.(*lotos.Parallel)
		return ok && x.Kind == y.Kind && slices.Equal(x.Sync, y.Sync) && m.expr(x.L, y.L) && m.expr(x.R, y.R)
	case *lotos.Enable:
		y, ok := b.(*lotos.Enable)
		return ok && m.expr(x.L, y.L) && m.expr(x.R, y.R)
	case *lotos.Disable:
		y, ok := b.(*lotos.Disable)
		return ok && m.expr(x.L, y.L) && m.expr(x.R, y.R)
	case *lotos.Hide:
		y, ok := b.(*lotos.Hide)
		return ok && slices.Equal(x.Gates, y.Gates) && m.expr(x.Body, y.Body)
	}
	return false
}

func (m *isoMatcher) event(a, b lotos.Event) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case lotos.EvService:
		return a.Name == b.Name && a.Place == b.Place
	case lotos.EvInternal:
		return true
	}
	if a.Place != b.Place {
		return false
	}
	ka, kb := msgIdentOf(a), msgIdentOf(b)
	if to, ok := m.fwd[ka]; ok {
		return to == kb
	}
	if from, ok := m.rev[kb]; ok {
		return from == ka
	}
	m.fwd[ka], m.rev[kb] = kb, ka
	return true
}

// TestIsomorphicModuloMsgIDs checks the matcher the entity tests compare
// with: it accepts consistent renamings only.
func TestIsomorphicModuloMsgIDs(t *testing.T) {
	iso := func(a, b lotos.Expr) bool { return newIsoMatcher().expr(a, b) }
	a := lotos.MustParseExpr("a1; s2(6); exit")
	b := lotos.MustParseExpr("a1; s2(9); exit")
	if !iso(a, b) {
		t.Error("single renamed message must be isomorphic")
	}
	// Consistency: the same id must map to the same id everywhere.
	c := lotos.MustParseExpr("s2(6); r3(6); exit")
	d := lotos.MustParseExpr("s2(9); r3(8); exit")
	if iso(c, d) {
		t.Error("inconsistent renaming must not be isomorphic")
	}
	e := lotos.MustParseExpr("s2(6); r3(6); exit")
	f := lotos.MustParseExpr("s2(9); r3(9); exit")
	if !iso(e, f) {
		t.Error("consistent renaming must be isomorphic")
	}
	// Injectivity: two different ids cannot collapse into one.
	g := lotos.MustParseExpr("s2(6); s2(7); exit")
	h := lotos.MustParseExpr("s2(9); s2(9); exit")
	if iso(g, h) {
		t.Error("non-injective renaming must not be isomorphic")
	}
	// Tags and node ids may be renamed into each other.
	i := lotos.MustParseExpr("s2(x); r3(x); exit")
	j := lotos.MustParseExpr("s2(4); r3(4); exit")
	if !iso(i, j) {
		t.Error("tag-to-node renaming must be isomorphic")
	}
	// Different peers never match.
	k := lotos.MustParseExpr("s2(6); exit")
	l := lotos.MustParseExpr("s3(6); exit")
	if iso(k, l) {
		t.Error("different peers must not be isomorphic")
	}
	// Empty matches exit.
	if !iso(lotos.Emp(), lotos.X()) || !iso(lotos.X(), lotos.Emp()) {
		t.Error("empty and exit must be isomorphic")
	}
	// Service names must match exactly.
	m := lotos.MustParseExpr("a1; exit")
	n := lotos.MustParseExpr("b1; exit")
	if iso(m, n) {
		t.Error("different service primitives must not be isomorphic")
	}
}
