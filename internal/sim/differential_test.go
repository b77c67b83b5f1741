package sim

// Corpus-wide differential test of the machines against the SOS reference
// (reference_test.go): every checked-in specification, every derived
// entity. The equivalence is checked at two levels — statically, each
// machine's minimized layer is weakly bisimilar to the entity's
// independently explored transition system and sized like it;
// dynamically, lockstep runs with the same seed are byte-identical over the
// machines and over the reference, at the default state cap (rows
// retained) and at a tiny one (rows past it derived on every visit), and
// their traces are weak traces of the service.

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/equiv"
	"repro/internal/fsm"
	"repro/internal/lotos"
	"repro/internal/lts"
)

// corpusEntry is one derived corpus member.
type corpusEntry struct {
	d *core.Derivation
	// disabling marks specs using "[>": their derived interrupt broadcast
	// deviates from the service by design (the Section-5 theorem excludes
	// the operator), so runtime traces need not be service traces.
	disabling bool
}

// corpusDerivations parses and derives every repository corpus spec.
func corpusDerivations(t *testing.T) map[string]corpusEntry {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.spec"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus specs found: %v", err)
	}
	out := map[string]corpusEntry{}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := lotos.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: parse: %v", file, err)
		}
		d, err := core.Derive(sp, core.Options{})
		if err != nil {
			t.Fatalf("%s: derive: %v", file, err)
		}
		name := strings.TrimSuffix(filepath.Base(file), ".spec")
		out[name] = corpusEntry{d: d, disabling: strings.Contains(string(src), "[>")}
	}
	return out
}

// diffMaxStates is the minimization cap for the static sweep: big enough
// for every finite corpus entity, small enough that the unbounded ones fail
// fast.
const diffMaxStates = 1024

// quotientGraph rebuilds a minimized layer as an lts.Graph.
func quotientGraph(l *fsm.Minimized) *lts.Graph {
	n := l.NumStates()
	g := &lts.Graph{States: make([]lotos.Expr, n), Keys: l.Keys, Edges: make([][]lts.Edge, n),
		Depth: make([]int, n), ObsDepth: make([]int, n), Frontier: map[int]bool{}}
	for c := 0; c < n; c++ {
		for e := l.Off[c]; e < l.Off[c+1]; e++ {
			g.Edges[c] = append(g.Edges[c], lts.Edge{Label: l.Label(e), To: int(l.To[e])})
		}
	}
	return g
}

// TestCorpusCompiledBisimilarToExploration checks the static half over the
// whole corpus: for every entity whose minimized layer closes under the
// cap, the layer's exact sizes are those of the entity's independently
// explored transition system, its tables are weakly bisimilar to it, and it
// has exactly one state per weak-bisimulation class.
func TestCorpusCompiledBisimilarToExploration(t *testing.T) {
	compiled, fallback := 0, 0
	for name, entry := range corpusDerivations(t) {
		d := entry.d
		fleet := fsm.CompileEntities(d.Entities, fsm.Config{MaxStates: diffMaxStates})
		for place, sp := range d.Entities {
			m, err := fleet.Machines[place].Minimized()
			if err != nil {
				fallback++
				continue
			}
			compiled++
			env, err := lts.EnvFor(sp)
			if err != nil {
				t.Fatalf("%s entity %d: %v", name, place, err)
			}
			explored, err := lts.Explore(env, sp.Root.Expr, lts.Limits{MaxStates: diffMaxStates})
			if err != nil {
				t.Fatalf("%s entity %d: explore: %v", name, place, err)
			}
			if m.ExactStates != explored.NumStates() || m.ExactTransitions != explored.NumTransitions() {
				t.Errorf("%s entity %d: exact size %d/%d, exploration %d/%d", name, place,
					m.ExactStates, m.ExactTransitions, explored.NumStates(), explored.NumTransitions())
			}
			if !equiv.WeakBisimilar(quotientGraph(m), explored) {
				t.Errorf("%s entity %d: minimized tables not weakly bisimilar to exploration", name, place)
			}
			if want := equiv.NumClassesWeak(explored); m.NumStates() != want {
				t.Errorf("%s entity %d: %d minimized states, want %d weak classes",
					name, place, m.NumStates(), want)
			}
		}
	}
	if compiled == 0 {
		t.Fatal("no corpus entity closed under the cap — the static sweep tested nothing")
	}
	if fallback == 0 {
		t.Fatal("no corpus entity overflowed — the corpus lost its unbounded members")
	}
	t.Logf("corpus entities: %d minimized, %d over the cap", compiled, fallback)
}

// TestCorpusEnginesProduceIdenticalRuns checks the dynamic half: for every
// corpus spec, 20 seeds and two state caps — the default, and 8, where most
// rows are derived on every visit instead of retained — a lockstep session
// over one shared fleet is byte-identical to the same session over the SOS
// reference: trace, outcome flags, medium counters and sweep count. Each
// trace is a weak trace of the service.
func TestCorpusEnginesProduceIdenticalRuns(t *testing.T) {
	const seeds = 20
	for name, entry := range corpusDerivations(t) {
		d := entry.d
		for _, cap := range []int{0, 8} {
			fleet := fsm.CompileEntities(d.Entities, fsm.Config{MaxStates: cap})
			for seed := int64(0); seed < seeds; seed++ {
				cfg := Config{Seed: seed, MaxEvents: 24}
				want, err := runReference(t, d.Entities, cfg)
				if err != nil {
					t.Fatalf("%s seed %d reference: %v", name, seed, err)
				}
				cfg.Fleet = fleet
				got, res, err := runMachines(t, d.Entities, cfg)
				if err != nil {
					t.Fatalf("%s cap %d seed %d machines: %v", name, cap, seed, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s cap %d seed %d: runs diverge\n machines:  %+v\n reference: %+v",
						name, cap, seed, got, want)
				}
				// Disabling specs are exempt: their derived protocol deviates
				// from the service by design.
				if !entry.disabling && cap == 0 {
					if err := CheckTrace(d.Service.Spec, res, 200000); err != nil {
						t.Errorf("%s seed %d: %v (trace %v)", name, seed, err, want.Trace)
					}
				}
			}
		}
	}
}
