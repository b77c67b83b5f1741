package protoderive

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// corpusVerifyGoldenFile pins every fault-matrix cell's report text and
// witness byte for byte.
var corpusVerifyGoldenFile = filepath.Join("testdata", "corpus_verify.golden")

// corpusVerifyRecord renders every fault-matrix cell — the corpus specs at
// channel capacities 1 and 2 under every matrix fault model, at matrixOpts
// bounds (4,000 states for the multi-instance specs, as in
// TestCorpusFaultMatrix) — as its key, its report Summary and its
// JSON-encoded witness, in key order.
func corpusVerifyRecord(t *testing.T) string {
	t.Helper()
	protos := corpusProtocols(t)
	cells := map[string]string{}
	for name, proto := range protos {
		for _, chanCap := range []int{1, 2} {
			opts := matrixOpts
			opts.ChannelCap = chanCap
			if name == "multiinstance" || name == "multiring" {
				opts.MaxStates = 4000
			}
			mx, err := proto.VerifyMatrix(matrixModels, &opts)
			if err != nil {
				t.Fatalf("%s cap=%d: %v", name, chanCap, err)
			}
			for _, cell := range mx {
				key := name + "/cap" + string(rune('0'+chanCap)) + "/" + cell.Faults
				w, err := json.Marshal(cell.Report.Witness)
				if err != nil {
					t.Fatalf("%s: encoding witness: %v", key, err)
				}
				cells[key] = cell.Report.Summary + "\nwitness: " + string(w) + "\n"
			}
		}
	}
	keys := make([]string, 0, len(cells))
	for k := range cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString("== " + k + "\n" + cells[k])
	}
	return b.String()
}

// TestCorpusVerifyGolden holds every fault-matrix cell's verdict summary and
// counterexample byte-identical to the recorded file: any change to the
// trace comparison, the witness search or the report text shows up here
// cell by cell.
func TestCorpusVerifyGolden(t *testing.T) {
	want, err := os.ReadFile(corpusVerifyGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	got := corpusVerifyRecord(t)
	if got == string(want) {
		return
	}
	gotCells := strings.Split(got, "== ")
	wantCells := strings.Split(string(want), "== ")
	for i := 0; i < len(gotCells) || i < len(wantCells); i++ {
		var g, w string
		if i < len(gotCells) {
			g = gotCells[i]
		}
		if i < len(wantCells) {
			w = wantCells[i]
		}
		if g != w {
			t.Fatalf("first differing cell:\n--- got\n%s\n--- want\n%s", g, w)
		}
	}
}
