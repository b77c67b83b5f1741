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

func exploreCorpusSpec(t *testing.T, entities map[int]*lotos.Spec, cfg Config) *lts.Graph {
	t.Helper()
	sys, err := New(entities, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := sys.Explore()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestParallelMatchesSerialOnCorpus explores the full specs/ corpus with
// one derivation worker and with four: the exploration core must yield the
// identical graph, state numbering, edge order and depths included.
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
			serial := exploreCorpusSpec(t, d.Entities, Config{Limits: corpusLimits})
			par := exploreCorpusSpec(t, d.Entities, Config{Limits: corpusLimits, Parallel: true, Workers: 4})
			if serial.NumStates() >= corpusLimits.MaxStates {
				t.Fatalf("state cap hit (%d states); raise corpusLimits.MaxStates", serial.NumStates())
			}
			if !reflect.DeepEqual(serial.Keys, par.Keys) || !reflect.DeepEqual(serial.Edges, par.Edges) {
				t.Errorf("graphs differ: serial %d/%d, parallel %d/%d states/transitions",
					serial.NumStates(), serial.NumTransitions(), par.NumStates(), par.NumTransitions())
			}
			if !reflect.DeepEqual(serial.Depth, par.Depth) || !reflect.DeepEqual(serial.ObsDepth, par.ObsDepth) ||
				!reflect.DeepEqual(serial.Frontier, par.Frontier) {
				t.Error("depth accounting or frontier differs between serial and parallel exploration")
			}
		})
	}
}

// TestParallelExploreDeterministic requires two fresh parallel explorations
// of the same entities to produce bit-identical graphs (state numbering
// included), despite worker scheduling nondeterminism.
func TestParallelExploreDeterministic(t *testing.T) {
	d, err := core.Derive(lotos.MustParse("SPEC a1; b2; c3; exit [> d3; exit ENDSPEC"), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	run := func() *lts.Graph {
		return exploreCorpusSpec(t, d.Entities, Config{Limits: corpusLimits, Parallel: true, Workers: 8})
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Keys, b.Keys) {
		t.Fatal("state numbering differs between identical parallel runs")
	}
	if !reflect.DeepEqual(a.Edges, b.Edges) {
		t.Error("edges differ between identical parallel runs")
	}
}
