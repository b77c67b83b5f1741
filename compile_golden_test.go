package protoderive

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// compileGoldenCaps are the per-entity state caps the compile golden
// records: one below most corpus entities, one between, and the default.
var compileGoldenCaps = []int{64, 1024, 4096}

// TestCompileGolden holds the Compile report of every corpus spec at every
// recorded cap byte-identical to testdata/compile.golden. The report's
// exact and minimized sizes come from the eager bounded exploration of each
// entity.
func TestCompileGolden(t *testing.T) {
	var b strings.Builder
	for _, path := range corpusFiles(t) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		proto := facadeProto(t, string(src))
		for _, cap := range compileGoldenCaps {
			rep, err := proto.Compile(&CompileOptions{MaxStates: cap})
			if err != nil {
				t.Fatalf("%s cap %d: %v", path, cap, err)
			}
			js, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s cap=%d\n%s\n", filepath.Base(path), cap, js)
		}
	}
	golden := filepath.Join("testdata", "compile.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("compile reports differ from %s:\n%s", golden, firstDiff(string(want), got))
	}
}

// firstDiff renders the first differing line of two texts.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n want %s\n got  %s", i+1, wl, gl)
		}
	}
	return "(no differing line)"
}
