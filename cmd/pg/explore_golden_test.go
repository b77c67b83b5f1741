package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// exploreGoldenArgs are the explore renderings testdata/explore.golden
// pins: the transition listing with weak traces, and the minimized graph in
// dot format.
var exploreGoldenArgs = [][]string{
	{"-transitions", "-traces", "4"},
	{"-dot", "-minimize"},
}

// TestExploreGolden holds `pg explore` output on two corpus specs byte-
// identical to testdata/explore.golden: edges carry label ids, and the
// rendered labels, their order and every line around them must not depend
// on how the ids were assigned.
func TestExploreGolden(t *testing.T) {
	var b strings.Builder
	for _, spec := range []string{"example6", "session"} {
		for _, flags := range exploreGoldenArgs {
			args := append(append([]string{"explore"}, flags...), filepath.Join("..", "..", "specs", spec+".spec"))
			code, out, errw := runPG(t, args, "")
			if code != 0 {
				t.Fatalf("pg %s: exit %d: %s", strings.Join(args, " "), code, errw)
			}
			fmt.Fprintf(&b, "$ pg %s\n%s", strings.Join(args, " "), out)
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "explore.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range max(len(gl), len(wl)) {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("explore output differs from the golden at line %d:\n want %s\n got  %s", i+1, w, g)
			}
		}
	}
}
