package fsm

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/equiv"
	"repro/internal/lotos"
	"repro/internal/lts"
)

func deriveFor(t testing.TB, src string) *core.Derivation {
	t.Helper()
	d, err := core.Derive(lotos.MustParse(src), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func exploreEntity(t testing.TB, sp *lotos.Spec) *lts.Graph {
	t.Helper()
	clone := lotos.CloneSpec(sp)
	env, err := lts.EnvFor(clone)
	if err != nil {
		t.Fatal(err)
	}
	g, err := lts.Explore(env, clone.Root.Expr, lts.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// quotientGraph rebuilds a minimized layer as an lts.Graph.
func quotientGraph(l *Minimized) *lts.Graph {
	n := l.NumStates()
	g := &lts.Graph{States: make([]lotos.Expr, n), Keys: l.Keys, Edges: make([][]lts.Edge, n),
		ObsDepth: make([]int, n), Frontier: map[int]bool{}}
	for c := 0; c < n; c++ {
		for e := l.Off[c]; e < l.Off[c+1]; e++ {
			g.AddEdge(c, l.Label(e), int(l.To[e]))
		}
	}
	return g
}

// lazyGraph walks a machine's execution layer breadth-first from its root,
// filling every row, and numbers states in discovery order — the order
// lts.Explore numbers them.
func lazyGraph(t testing.TB, m *Machine) (keys []string, rows []*Row) {
	t.Helper()
	ids := map[*State]int{m.Root(): 0}
	queue := []*State{m.Root()}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		r, err := m.Row(s)
		if err != nil {
			t.Fatal(err)
		}
		keys, rows = append(keys, s.Key()), append(rows, r)
		for _, to := range r.To {
			if _, ok := ids[to]; !ok {
				ids[to] = len(ids)
				queue = append(queue, to)
			}
		}
	}
	return keys, rows
}

// compile builds the machine of one entity together with its minimized
// layer: a state space exceeding the cap returns a *CompileError.
func compile(place int, sp *lotos.Spec, cfg Config) (*Machine, error) {
	m, err := New(place, sp, cfg)
	if err != nil {
		return nil, err
	}
	if _, err := m.Minimized(); err != nil {
		return nil, err
	}
	return m, nil
}

func TestCompileMatchesExploration(t *testing.T) {
	d := deriveFor(t, "SPEC a1; exit >> (b2; exit ||| c3; exit) >> d1; exit ENDSPEC")
	for _, p := range d.Places {
		m, err := compile(p, d.Entities[p], Config{})
		if err != nil {
			t.Fatalf("place %d: %v", p, err)
		}
		lay, _ := m.Minimized()
		g := exploreEntity(t, d.Entities[p])
		if lay.ExactStates != g.NumStates() || lay.ExactTransitions != g.NumTransitions() {
			t.Fatalf("place %d: machine %d/%d states/transitions, exploration %d/%d",
				p, lay.ExactStates, lay.ExactTransitions, g.NumStates(), g.NumTransitions())
		}
		// The lazily filled rows must reproduce the exploration
		// edge-for-edge in derivation order — that is what makes random
		// choices and witness transition indices line up with the SOS
		// semantics.
		keys, rows := lazyGraph(t, m)
		if !reflect.DeepEqual(keys, g.Keys) {
			t.Fatalf("place %d: lazy states %v, explored %v", p, keys, g.Keys)
		}
		for s, r := range rows {
			if len(r.Ops) != len(g.Edges[s]) {
				t.Fatalf("place %d state %d: %d edges vs %d", p, s, len(r.Ops), len(g.Edges[s]))
			}
			for i, e := range g.Edges[s] {
				op, ev := Classify(g.Alphabet[e.Label])
				if r.Ops[i] != op || r.Events[i] != ev || r.To[i].Key() != g.Keys[e.To] {
					t.Fatalf("place %d state %d edge %d: %s %v->%s vs %v->%s",
						p, s, i, r.Ops[i], r.Events[i], r.To[i].Key(), g.Alphabet[e.Label], g.Keys[e.To])
				}
			}
		}
		if !equiv.WeakBisimilar(quotientGraph(lay), g) {
			t.Errorf("place %d: minimized layer not weakly bisimilar to exploration", p)
		}
		if want := equiv.NumClassesWeak(g); lay.NumStates() != want {
			t.Errorf("place %d: minimized states = %d, NumClassesWeak = %d", p, lay.NumStates(), want)
		}
	}
}

func TestCompileDispatchRows(t *testing.T) {
	d := deriveFor(t, "SPEC a1; b2; exit ENDSPEC")
	m, err := New(1, d.Entities[1], Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Initial state of entity 1 offers the service primitive a1.
	r, err := m.Row(m.Root())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Offers) != 1 || r.Offers[0].Kind != lotos.EvService || r.Offers[0].Name != "a" {
		t.Fatalf("initial offers = %v", r.Offers)
	}
	if r.Ops[r.OfferAt[0]] != OpService {
		t.Fatalf("offer edge op = %v", r.Ops[r.OfferAt[0]])
	}
	if again, _ := m.Row(m.Root()); again != r {
		t.Error("retained row derived twice")
	}
	// Somewhere in the machine there must be a send (entity 1 notifies
	// entity 2) and a delta.
	var sawSend, sawDelta bool
	_, rows := lazyGraph(t, m)
	for _, r := range rows {
		for _, op := range r.Ops {
			sawSend = sawSend || op == OpSend
			sawDelta = sawDelta || op == OpDelta
		}
	}
	if !sawSend || !sawDelta {
		t.Errorf("ops missing dispatch kinds: send=%v delta=%v", sawSend, sawDelta)
	}
}

func TestCompileDeterministic(t *testing.T) {
	d := deriveFor(t, "SPEC (a1; b2; exit [] c1; d2; exit) [> e2; d2; exit ENDSPEC")
	for _, p := range d.Places {
		m1, err1 := compile(p, d.Entities[p], Config{})
		m2, err2 := compile(p, d.Entities[p], Config{})
		if err1 != nil || err2 != nil {
			t.Fatalf("place %d: %v / %v", p, err1, err2)
		}
		l1, _ := m1.Minimized()
		l2, _ := m2.Minimized()
		if !reflect.DeepEqual(l1, l2) {
			t.Errorf("place %d: repeated minimization differs", p)
		}
	}
}

func TestCompileUnboundedRecursionFails(t *testing.T) {
	// Example 2 (a^n b^n): the derived entities stack one continuation per
	// recursion level, so their state spaces are unbounded.
	d := deriveFor(t, `SPEC A WHERE PROC A = (a1; A >> b2; exit) [] (a1; b2; exit) END ENDSPEC`)
	_, err := compile(1, d.Entities[1], Config{MaxStates: 256})
	var ce *CompileError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CompileError", err)
	}
	if ce.Place != 1 || ce.Cap != 256 || ce.States < 256 {
		t.Errorf("CompileError fields: %+v", ce)
	}
	if ce.Error() == "" || ce.Unwrap() != nil {
		t.Errorf("cap overflow: Error()=%q Unwrap()=%v", ce.Error(), ce.Unwrap())
	}
	// The machine itself builds and runs; only its minimized layer fails,
	// the same way on every call.
	m, err := New(1, d.Entities[1], Config{MaxStates: 256})
	if err != nil {
		t.Fatal(err)
	}
	_, err1 := m.Minimized()
	_, err2 := m.Minimized()
	if !reflect.DeepEqual(err1, ce) || err1 != err2 {
		t.Errorf("Minimized errors %v / %v, want %v once", err1, err2, ce)
	}
	// The failed exploration's states are released, and the machine runs on.
	if n := m.Retained(); n != 1 {
		t.Errorf("%d states retained after a failed minimization, want the root only", n)
	}
	if r, err := m.Row(m.Root()); err != nil || len(r.Ops) == 0 {
		t.Errorf("root row after a failed minimization: %v, %v", r, err)
	}
}

func TestCompileEntitiesMixedFleet(t *testing.T) {
	d := deriveFor(t, `SPEC A WHERE PROC A = (a1; A >> b2; exit) [] (a1; b2; exit) END ENDSPEC`)
	f := CompileEntities(d.Entities, Config{MaxStates: 256})
	if len(f.Machines) != len(d.Entities) || len(f.Errors) != 0 {
		t.Fatalf("fleet has %d machines and errors %v for %d entities", len(f.Machines), f.Errors, len(d.Entities))
	}
	overflow := 0
	for p, m := range f.Machines {
		if m.Place != p {
			t.Errorf("place %d: machine place %d", p, m.Place)
		}
		if m.Retained() != 1 {
			t.Errorf("place %d: %d states retained before any visit, want the root only", p, m.Retained())
		}
		var ce *CompileError
		if _, err := m.Minimized(); errors.As(err, &ce) && ce.Cap == 256 {
			overflow++
		}
	}
	if overflow == 0 {
		t.Fatalf("expected at least one entity over the cap, got none")
	}

	// A terminating fleet minimizes fully.
	d2 := deriveFor(t, "SPEC a1; b2; c3; exit ENDSPEC")
	for p, m := range CompileEntities(d2.Entities, Config{}).Machines {
		if _, err := m.Minimized(); err != nil {
			t.Errorf("terminating entity %d: %v", p, err)
		}
	}
}

func TestOpString(t *testing.T) {
	for op, want := range map[Op]string{
		OpInternal: "internal", OpDelta: "delta", OpSend: "send",
		OpRecv: "recv", OpRecvFlush: "recv-flush", OpService: "service",
		Op(99): "Op(99)",
	} {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", uint8(op), got, want)
		}
	}
}

// TestMinimizedFillsExecutionRows checks that the minimized layer is built
// from the machine's own execution rows: after Minimized on an entity that
// closes under the cap, every reachable state is retained, numbered densely
// in interning order from the root, and already holds its row. The cap
// covers every closing corpus entity (the largest has 344 states) and
// stops the unbounded ones early.
func TestMinimizedFillsExecutionRows(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.spec"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus specs found: %v", err)
	}
	closed := 0
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		d := deriveFor(t, string(src))
		for _, p := range d.Places {
			m, err := New(p, d.Entities[p], Config{MaxStates: 512})
			if err != nil {
				t.Fatal(err)
			}
			lay, err := m.Minimized()
			var ce *CompileError
			if errors.As(err, &ce) && ce.Cap > 0 {
				continue // unbounded entity: nothing closes
			}
			if err != nil {
				t.Fatalf("%s place %d: %v", file, p, err)
			}
			closed++
			if m.Retained() != lay.ExactStates {
				t.Errorf("%s place %d: %d states retained, %d explored", file, p, m.Retained(), lay.ExactStates)
			}
			for id, s := range m.states {
				if s.ID() != int32(id) || s.row.Load() == nil {
					t.Errorf("%s place %d: state %d has id %d, row filled %v", file, p, id, s.ID(), s.row.Load() != nil)
				}
			}
			if m.Root().ID() != 0 {
				t.Errorf("%s place %d: root id %d", file, p, m.Root().ID())
			}
		}
	}
	if closed == 0 {
		t.Fatal("no corpus entity closed under the cap")
	}
}
