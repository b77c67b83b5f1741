package sim

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/fsm"
	"repro/internal/lotos"
)

// fuzzFleetCap is the state cap of FuzzFleetRuns's shared fleet: small
// enough that almost every run outgrows it, so both retained rows and rows
// derived on every visit execute.
const fuzzFleetCap = 2

// FuzzFleetRuns holds the machines to their runtime contract on every input
// the fuzzer discovers: every fleet runs, and a seeded lockstep session over
// a shared fleet with a tiny state cap is the same execution as over the SOS
// reference (reference_test.go) — trace, outcome flags, medium counters and
// sweep count. A spec may legitimately fail at runtime (e.g. unguarded
// recursion exceeds the unfold bound), but then the reference must fail too.
func FuzzFleetRuns(f *testing.F) {
	matches, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.spec"))
	if err != nil || len(matches) == 0 {
		f.Fatalf("no seed specs found under specs/ (%v)", err)
	}
	for _, m := range matches {
		data, err := os.ReadFile(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data), int64(1))
	}
	for _, s := range []string{
		"SPEC (a1; b2; exit [] c1; d2; exit) [> e2; d2; exit ENDSPEC",
		"SPEC (a1; s4; exit ||| b2; s4; exit) |[s4]| s4; c4; exit ENDSPEC",
		"SPEC A WHERE PROC A = (a1; A >> b2; exit) [] (a1; b2; exit) END ENDSPEC",
	} {
		f.Add(s, int64(7))
	}
	f.Fuzz(func(t *testing.T, src string, seed int64) {
		sp, err := lotos.Parse(src)
		if err != nil {
			return
		}
		d, err := core.Derive(sp, core.Options{})
		if err != nil || len(d.Entities) == 0 {
			return
		}
		cfg := Config{Seed: seed, MaxEvents: 8}
		want, refErr := runReference(t, d.Entities, cfg)
		cfg.Fleet = fsm.CompileEntities(d.Entities, fsm.Config{MaxStates: fuzzFleetCap})
		got, _, err := runMachines(t, d.Entities, cfg)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("runnability differs: reference err=%v, machines err=%v\ninput: %q", refErr, err, src)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("runs diverge\n machines:  %+v\n reference: %+v\ninput: %q", got, want, src)
		}
	})
}
