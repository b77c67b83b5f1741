package compose

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/lotos"
	"repro/internal/lts"
)

// corpusLimits lets every corpus spec close within the observable bound, so
// the cross-check compares whole explorations, not state-cap prefixes.
var corpusLimits = lts.Limits{MaxObsDepth: 5, MaxStates: 400000}

// exploreCorpusSpec explores a fresh system and checks that its local tables
// are its machines' states one for one: every state a machine retained was
// introduced by a row the product translated, so each place's table has as
// many local ids as the machine has retained states. It returns the graph
// and the decoded content of its states (decodedStates).
func exploreCorpusSpec(t *testing.T, entities map[int]*lotos.Spec, cfg Config) (*lts.Graph, []string) {
	t.Helper()
	sys, err := New(entities, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := sys.Explore()
	if err != nil {
		t.Fatal(err)
	}
	for idx, p := range sys.Places {
		if ids, retained := len(sys.local[idx]), sys.machines[idx].Retained(); ids != retained {
			t.Errorf("place %d: %d local ids, machine retained %d states", p, ids, retained)
		}
	}
	return g, decodedStates(t, sys, g)
}

// TestParallelMatchesSerialOnCorpus explores the full specs/ corpus with
// one derivation worker and with four, each on a fresh system stepping its
// own machines: the exploration core must yield the identical graph, state
// numbering, edge order and depths included, and both systems the same
// local-id count per place as their machines retained. Key bytes follow
// interning order, which parallel derivation varies, so states are
// compared by their decoded content.
func TestParallelMatchesSerialOnCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.spec"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus specs found: %v", err)
	}
	for _, file := range files {
		t.Run(filepath.Base(file), func(t *testing.T) {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			d, err := core.Derive(lotos.MustParse(string(src)), core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			serial, serialStates := exploreCorpusSpec(t, d.Entities, Config{Limits: corpusLimits})
			par, parStates := exploreCorpusSpec(t, d.Entities, Config{Limits: corpusLimits, Parallel: true, Workers: 4})
			if serial.NumStates() >= corpusLimits.MaxStates {
				t.Fatalf("state cap hit (%d states); raise corpusLimits.MaxStates", serial.NumStates())
			}
			if !reflect.DeepEqual(serialStates, parStates) || !reflect.DeepEqual(serial.Edges, par.Edges) {
				t.Errorf("graphs differ: serial %d/%d, parallel %d/%d states/transitions",
					serial.NumStates(), serial.NumTransitions(), par.NumStates(), par.NumTransitions())
			}
			if !reflect.DeepEqual(serial.ObsDepth, par.ObsDepth) ||
				!reflect.DeepEqual(serial.Frontier, par.Frontier) {
				t.Error("depth accounting or frontier differs between serial and parallel exploration")
			}
		})
	}
}

// TestParallelExploreDeterministic requires two fresh parallel explorations
// of the same entities to produce identical graphs, state numbering
// included, despite worker scheduling nondeterminism: every state number
// decodes to the same content and the edges are equal. (The key bytes may
// differ: they follow the order in which the workers interned ids, and so
// does the canonical column order of the symmetric case's orbit keys.)
func TestParallelExploreDeterministic(t *testing.T) {
	cases := []struct {
		name, src string
		red       Reductions
	}{
		{"disable/por", "SPEC a1; b2; c3; exit [> d3; exit ENDSPEC", 0},
		{"relay3/por+symmetry", relaySrc(3), RedPOR.With(RedSymmetry)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d, err := core.Derive(lotos.MustParse(c.src), core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			run := func() (*lts.Graph, []string) {
				return exploreCorpusSpec(t, d.Entities, Config{Limits: corpusLimits, Parallel: true, Workers: 8, Reductions: c.red})
			}
			a, aStates := run()
			b, bStates := run()
			if !reflect.DeepEqual(aStates, bStates) {
				t.Fatal("state numbering differs between identical parallel runs")
			}
			if !reflect.DeepEqual(a.Edges, b.Edges) {
				t.Error("edges differ between identical parallel runs")
			}
		})
	}
}
