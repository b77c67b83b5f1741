package fsm_test

// FuzzCompile drives arbitrary specifications through parse, derive and
// machine construction, holding the machines to their two static contracts
// on every input the fuzzer discovers:
//
//   - construction never panics: each entity yields a machine, and its
//     minimized layer either builds or fails with a structured
//     *CompileError naming its place;
//   - minimization is exact: a minimized layer is sized like the entity's
//     independently explored transition system and has one state per
//     weak-bisimulation class of it, never more or fewer.
//
// The runtime contract, that every fleet runs exactly like the SOS
// reference, is FuzzFleetRuns in internal/sim.

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/equiv"
	"repro/internal/fsm"
	"repro/internal/lotos"
	"repro/internal/lts"
)

// fuzzMaxStates caps every fuzzed machine's minimized layer.
const fuzzMaxStates = 256

func seedCompileCorpus(f *testing.F) {
	matches, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.spec"))
	if err != nil {
		f.Fatal(err)
	}
	if len(matches) == 0 {
		f.Fatal("no seed specs found under specs/")
	}
	for _, m := range matches {
		data, err := os.ReadFile(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	for _, s := range []string{
		// Finite shapes of every operator the compiler flattens.
		"SPEC a1; b2; exit ENDSPEC",
		"SPEC (a1; b2; exit [] c1; d2; exit) [> e2; d2; exit ENDSPEC",
		"SPEC a1; exit >> (b2; exit ||| c3; exit) >> d1; exit ENDSPEC",
		"SPEC (a1; s4; exit ||| b2; s4; exit) |[s4]| s4; c4; exit ENDSPEC",
		// Unbounded recursion: must overflow into a structured fallback.
		"SPEC A WHERE PROC A = (a1; A >> b2; exit) [] (a1; b2; exit) END ENDSPEC",
		// Degenerate service with no primitives: derives zero entities.
		"SPEC exit ENDSPEC",
		"",
	} {
		f.Add(s)
	}
}

func FuzzCompile(f *testing.F) {
	seedCompileCorpus(f)
	f.Fuzz(func(t *testing.T, src string) {
		sp, err := lotos.Parse(src)
		if err != nil {
			return // ungrammatical input: the parser's contract, not ours
		}
		d, err := core.Derive(sp, core.Options{})
		if err != nil {
			return // restriction violations reject the service before compilation
		}
		fleet := fsm.CompileEntities(d.Entities, fsm.Config{MaxStates: fuzzMaxStates})
		for place := range d.Entities {
			m := fleet.Machines[place]
			if m == nil {
				t.Fatalf("entity %d: no machine (%v)", place, fleet.Errors[place])
			}
			lay, err := m.Minimized()
			if err != nil {
				var ce *fsm.CompileError
				if !errors.As(err, &ce) || ce.Place != place || ce.Error() == "" {
					t.Fatalf("entity %d: malformed minimization error %#v", place, err)
				}
				continue
			}
			// Minimization is exact: the exact sizes are the explored
			// entity's, with one minimized state per weak class.
			sp := lotos.CloneSpec(d.Entities[place])
			env, err := lts.EnvFor(sp)
			if err != nil {
				t.Fatalf("entity %d: minimized, but its env fails: %v", place, err)
			}
			g, err := lts.Explore(env, sp.Root.Expr, lts.Limits{MaxStates: fuzzMaxStates})
			if err != nil || g.Truncated {
				t.Fatalf("entity %d: minimized, but exploration fails (err=%v truncated=%v)", place, err, g != nil && g.Truncated)
			}
			if lay.ExactStates != g.NumStates() || lay.ExactTransitions != g.NumTransitions() {
				t.Fatalf("entity %d: exact size %d/%d, exploration %d/%d\ninput: %q",
					place, lay.ExactStates, lay.ExactTransitions, g.NumStates(), g.NumTransitions(), src)
			}
			if want := equiv.NumClassesWeak(g); lay.NumStates() != want {
				t.Fatalf("entity %d: %d minimized states, want %d weak classes\ninput: %q",
					place, lay.NumStates(), want, src)
			}
			// Tables are well-formed: every transition targets a real class.
			for _, to := range lay.To {
				if to < 0 || int(to) >= lay.NumStates() {
					t.Fatalf("entity %d: minimized target %d out of range [0,%d)", place, to, lay.NumStates())
				}
			}
		}
	})
}
