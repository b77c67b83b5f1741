package lts

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/lotos"
)

// fakeSource is a StateSource over string states with a fixed edge table,
// for explorer tests that need precise control over discovery order.
type fakeSource struct {
	edges map[string][]GenTransition
	// failOn, when non-empty, makes Next fail for that state.
	failOn string
}

func (f *fakeSource) Next(state any) ([]GenTransition, error) {
	s := state.(string)
	if f.failOn != "" && s == f.failOn {
		return nil, errors.New("injected derivation failure")
	}
	return f.edges[s], nil
}

// lockedSource serializes a source that is not safe for concurrent use (the
// SOS environment memoizes process instantiations in a plain map), so the
// multi-worker configurations can run over it.
type lockedSource struct {
	mu  sync.Mutex
	src StateSource
}

func (l *lockedSource) Next(state any) ([]GenTransition, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.src.Next(state)
}

func obs(to string) GenTransition {
	return GenTransition{Label: Label{Kind: LEvent, Ev: lotos.ServiceEvent("a", 1)}, Key: to, To: to}
}

func tau(to string) GenTransition {
	return GenTransition{Label: Internal(), Key: to, To: to}
}

func stateID(t *testing.T, g *Graph, key string) int {
	t.Helper()
	for i, k := range g.Keys {
		if k == key {
			return i
		}
	}
	t.Fatalf("state %q not in graph (keys %v)", key, g.Keys)
	return -1
}

// coreConfig is one worker-count and visited-index choice of the
// exploration core.
type coreConfig struct {
	name    string
	workers int
	spill   bool
}

// coreConfigs are the configurations every graph-level test runs: one
// worker, four workers, and the spilling index at a 1 KiB budget (with four
// workers). All of them must yield the identical graph.
var coreConfigs = []coreConfig{
	{"serial", 1, false},
	{"parallel", 4, false},
	{"spill", 4, true},
}

func (c coreConfig) explore(t *testing.T, src StateSource, rootKey string, root any, lim Limits) (*Graph, error) {
	t.Helper()
	var spill *SpillConfig
	if c.spill {
		spill = &SpillConfig{Budget: 1024, Dir: t.TempDir()}
	}
	g, _, err := ExploreSource(src, rootKey, root, lim, c.workers, spill)
	return g, err
}

// exploreEvery explores src under every core configuration, requires the
// graphs to be identical, and returns them in coreConfigs order.
func exploreEvery(t *testing.T, src StateSource, rootKey string, root any, lim Limits) []*Graph {
	t.Helper()
	var out []*Graph
	for _, c := range coreConfigs {
		g, err := c.explore(t, src, rootKey, root, lim)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(out) > 0 {
			assertGraphsIdentical(t, out[0], g, c.name+" vs serial")
		}
		out = append(out, g)
	}
	return out
}

// TestReExpansionRelaxesDepth pins the fix for the re-expansion branch of
// the explorer refreshing only the observable depth: when a shorter
// transition path to an already-expanded state is found later (through an
// observable-depth improvement that re-queues it), the plain Depth of its
// successors must be relaxed too, or MaxDepth truncation decisions read
// stale distances.
//
// With MaxObsDepth=1 the internal chain root -> X1 -> X2 -> X3 reaches A1
// and A2 at observable depth 0, after they were first discovered at
// observable depth 1 via the "a" edges. The re-expansions triggered by
// those improvements pass through C and D, whose shortest transition
// distances (2 and 3) were discovered second.
func TestReExpansionRelaxesDepth(t *testing.T) {
	src := &fakeSource{edges: map[string][]GenTransition{
		"root": {obs("A2"), tau("X1")},
		"X1":   {obs("A1"), tau("X2")},
		"A1":   {tau("C")},
		"X2":   {tau("A1"), tau("X3")},
		"X3":   {tau("A2")},
		"A2":   {tau("C")},
		"C":    {tau("D")},
		"D":    {},
	}}
	check := func(t *testing.T, g *Graph) {
		t.Helper()
		if g.Truncated {
			t.Errorf("graph truncated, frontier %v", g.Frontier)
		}
		if n := g.NumStates(); n != 8 {
			t.Fatalf("explored %d states, want 8", n)
		}
		want := map[string]int{
			"root": 0, "X1": 1, "A2": 1, "A1": 2, "X2": 2, "C": 2, "X3": 3, "D": 3,
		}
		for key, d := range want {
			if got := g.Depth[stateID(t, g, key)]; got != d {
				t.Errorf("Depth[%s] = %d, want %d", key, got, d)
			}
		}
		for key, od := range map[string]int{"root": 0, "X1": 0, "A1": 0, "A2": 0, "C": 0, "D": 0} {
			if got := g.ObsDepth[stateID(t, g, key)]; got != od {
				t.Errorf("ObsDepth[%s] = %d, want %d", key, got, od)
			}
		}
	}
	for _, g := range exploreEvery(t, src, "root", "root", Limits{MaxObsDepth: 1}) {
		check(t, g)
	}
}

// TestMaxStatesMidExpansionFrontier pins the truncation bookkeeping when
// the state cap lands in the middle of expanding a state: the partially
// derived state keeps its already-derived edges, is marked Frontier (its
// remaining successors are unknown), is NOT reported as a deadlock, and
// the graph is Truncated.
func TestMaxStatesMidExpansionFrontier(t *testing.T) {
	src := &fakeSource{edges: map[string][]GenTransition{
		"root": {obs("B")},
		"B":    {obs("C1"), obs("C2")},
		"C1":   {obs("B")},
		"C2":   {},
	}}
	for _, c := range coreConfigs {
		t.Run(c.name, func(t *testing.T) {
			run := func(lim Limits) (*Graph, error) {
				want, _, err := ExploreSource(src, "root", "root", lim, 1, nil)
				if err != nil {
					return nil, err
				}
				g, err := c.explore(t, src, "root", "root", lim)
				if err == nil {
					assertGraphsIdentical(t, want, g, fmt.Sprintf("cap=%d: %s vs serial", lim.MaxStates, c.name))
				}
				return g, err
			}
			// Cap 2: B is reached but cannot expand at all.
			g, err := run(Limits{MaxStates: 2})
			if err != nil {
				t.Fatal(err)
			}
			if !g.Truncated {
				t.Error("cap=2: graph not marked truncated")
			}
			b := stateID(t, g, "B")
			if len(g.Edges[b]) != 0 {
				t.Errorf("cap=2: B has %d edges, want 0", len(g.Edges[b]))
			}
			if !g.Frontier[b] {
				t.Error("cap=2: B not in frontier")
			}
			if dl := g.Deadlocks(); len(dl) != 0 {
				t.Errorf("cap=2: frontier state reported as deadlock: %v", dl)
			}

			// Cap 3: B expands its first edge (C1 joins), then hits the cap
			// deriving C2 — a partially derived edge list.
			g, err = run(Limits{MaxStates: 3})
			if err != nil {
				t.Fatal(err)
			}
			if !g.Truncated {
				t.Error("cap=3: graph not marked truncated")
			}
			b = stateID(t, g, "B")
			if len(g.Edges[b]) != 1 {
				t.Errorf("cap=3: B has %d edges, want 1 (partial expansion)", len(g.Edges[b]))
			}
			if !g.Frontier[b] {
				t.Error("cap=3: partially expanded B not in frontier")
			}
			if dl := g.Deadlocks(); len(dl) != 0 {
				t.Errorf("cap=3: unexpected deadlocks: %v", dl)
			}

			// Cap 4: closure; C2 is a genuine deadlock, B is not frontier.
			g, err = run(Limits{MaxStates: 4})
			if err != nil {
				t.Fatal(err)
			}
			if g.Truncated {
				t.Error("cap=4: graph should be complete")
			}
			if dl := g.Deadlocks(); len(dl) != 1 || g.Keys[dl[0]] != "C2" {
				t.Errorf("cap=4: deadlocks = %v, want exactly C2", dl)
			}
		})
	}
}

// TestParallelMatchesSerialOnSpecs runs the core configurations over
// SOS-derived graphs under observable-depth re-expansion and state-cap
// truncation: every configuration must give the identical graph.
func TestParallelMatchesSerialOnSpecs(t *testing.T) {
	specs := []string{
		"SPEC a1; b2; exit ENDSPEC",
		"SPEC a1; exit ||| b2; exit ||| c3; exit ENDSPEC",
		"SPEC A WHERE PROC A = a1; A [] b1; exit END ENDSPEC",
		"SPEC (a1; exit >> b2; exit) [> c3; exit ENDSPEC",
		"SPEC A WHERE PROC A = a1; A ||| i; b2; exit END ENDSPEC",
	}
	limits := []Limits{
		{MaxObsDepth: 6, MaxStates: 5000},
		{MaxObsDepth: 6, MaxStates: 7},
	}
	for _, srcText := range specs {
		sp := lotos.MustParse(srcText)
		for _, lim := range limits {
			var graphs []*Graph
			for _, c := range coreConfigs {
				// A fresh env per exploration proves no configuration depends
				// on another's warm-up.
				env, err := EnvFor(sp)
				if err != nil {
					t.Fatal(err)
				}
				src := &lockedSource{src: &exprSource{env: env}}
				g, err := c.explore(t, src, lotos.Canon(sp.Root.Expr), sp.Root.Expr, lim)
				if err != nil {
					t.Fatal(err)
				}
				if len(graphs) > 0 {
					assertGraphsIdentical(t, graphs[0], g, fmt.Sprintf("%s %+v: %s vs serial", srcText, lim, c.name))
				}
				graphs = append(graphs, g)
			}
		}
	}
}

// TestParallelDeterministic runs eight derivation workers twice over the same
// source and requires bit-identical graphs — state numbering included —
// despite scheduling nondeterminism in the derive phase.
func TestParallelDeterministic(t *testing.T) {
	sp := lotos.MustParse("SPEC A WHERE PROC A = a1; A ||| b2; exit END ENDSPEC")
	lim := Limits{MaxObsDepth: 5, MaxStates: 5000}
	run := func() *Graph {
		env, err := EnvFor(sp)
		if err != nil {
			t.Fatal(err)
		}
		src := &lockedSource{src: &exprSource{env: env}}
		g, _, err := ExploreSource(src, lotos.Canon(sp.Root.Expr), sp.Root.Expr, lim, 8, nil)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Keys, b.Keys) {
		t.Fatal("state numbering differs between identical parallel runs")
	}
	if !reflect.DeepEqual(a.Edges, b.Edges) {
		t.Error("edges differ between identical parallel runs")
	}
	if !reflect.DeepEqual(a.Depth, b.Depth) || !reflect.DeepEqual(a.ObsDepth, b.ObsDepth) {
		t.Error("depth accounting differs between identical parallel runs")
	}
}

// TestParallelPropagatesErrors checks a worker's derivation error aborts
// the exploration and surfaces to the caller.
func TestParallelPropagatesErrors(t *testing.T) {
	src := &fakeSource{
		edges: map[string][]GenTransition{
			"root": {obs("s0"), obs("s1"), obs("s2"), obs("s3")},
			"s0":   {}, "s1": {}, "s2": {}, "s3": {},
		},
		failOn: "s2",
	}
	if _, _, err := ExploreSource(src, "root", "root", Limits{}, 4, nil); err == nil {
		t.Fatal("expected injected derivation failure, got nil")
	}
}
