package protoderive

import (
	"reflect"
	"testing"
)

// TestCorpusCompositionalDifferential is the compositional-smoke gate: every
// corpus spec is verified through the whole fault matrix at channel
// capacities 1 and 2, monolithically and compositionally (the latter both
// serial and parallel, sharing one content-addressed artifact cache), and
// the verdicts are compared cell by cell:
//
//   - where the monolithic product did not hit the exploration state cap,
//     every verdict field must match (Ok, Complete, WeakBisimilar,
//     TracesEqual, Deadlocks);
//   - a state-capped monolithic verdict is a truncation artifact the
//     quotient product may legitimately improve on, so only the safe
//     direction is checked there (monolithic ok must not turn into a
//     compositional failure);
//   - every failing compositional cell must carry a witness byte-identical
//     to the monolithic one (the fallback returns the monolithic report
//     wholesale) that replays through the concrete interpreter;
//   - serial and parallel compositional runs must agree exactly.
func TestCorpusCompositionalDifferential(t *testing.T) {
	protos := corpusProtocols(t)
	arts := NewArtifactCache(0)
	for _, proto := range protos {
		proto.UseArtifacts(arts)
	}
	for name, proto := range protos {
		for _, chanCap := range []int{1, 2} {
			opts := matrixOpts
			opts.ChannelCap = chanCap
			if name == "multiinstance" || name == "multiring" {
				// Same budget trick as the monolithic matrix test: every
				// multiinstance/multiring cell overflows any affordable
				// monolithic budget, so keep the comparison cheap.
				opts.MaxStates = 4000
			}
			mono, err := proto.VerifyMatrix(matrixModels, &opts)
			if err != nil {
				t.Fatalf("%s cap=%d: %v", name, chanCap, err)
			}
			copts := opts
			copts.Compositional = true
			comp, err := proto.VerifyMatrix(matrixModels, &copts)
			if err != nil {
				t.Fatalf("%s cap=%d compositional: %v", name, chanCap, err)
			}
			popts := copts
			popts.Parallel = true
			popts.Workers = 4
			par, err := proto.VerifyMatrix(matrixModels, &popts)
			if err != nil {
				t.Fatalf("%s cap=%d compositional parallel: %v", name, chanCap, err)
			}
			for i, mc := range mono {
				cc, pc := comp[i], par[i]
				key := name + "/cap" + string(rune('0'+chanCap)) + "/" + mc.Faults
				t.Run(key, func(t *testing.T) {
					if cc.Report.Compositional == nil {
						t.Fatal("compositional cell carries no pipeline stats")
					}
					monoCapped := !mc.Report.Complete && mc.Report.ComposedStates >= opts.MaxStates
					if monoCapped {
						if mc.Report.Ok && !cc.Report.Ok {
							t.Errorf("monolithic ok under the cap but compositional failed:\n%s", cc.Report.Summary)
						}
					} else {
						if mc.Report.Ok != cc.Report.Ok ||
							mc.Report.Complete != cc.Report.Complete ||
							mc.Report.WeakBisimilar != cc.Report.WeakBisimilar ||
							mc.Report.TracesEqual != cc.Report.TracesEqual ||
							mc.Report.Deadlocks != cc.Report.Deadlocks {
							t.Errorf("verdict mismatch:\nmonolithic:\n%s\ncompositional:\n%s",
								mc.Report.Summary, cc.Report.Summary)
						}
					}

					// Failing cells fall back to the monolithic path, so the
					// counterexamples must be byte-identical and replayable.
					if !cc.Report.Ok {
						if cc.Report.Compositional.Fallback == "" {
							t.Error("failing compositional cell records no fallback reason")
						}
						mw, cw := "", ""
						if mc.Report.Witness != nil {
							mw = mc.Report.Witness.Summary()
						}
						if cc.Report.Witness != nil {
							cw = cc.Report.Witness.Summary()
						}
						if !monoCapped && mw != cw {
							t.Errorf("witness mismatch:\n--- monolithic\n%s\n--- compositional\n%s", mw, cw)
						}
						if cc.Report.Witness != nil {
							res, err := proto.Replay(cc.Report.Witness)
							if err != nil {
								t.Fatalf("replay: %v\n%s", err, cc.Report.Witness.Summary())
							}
							if !reflect.DeepEqual(res.Trace, cc.Report.Witness.Trace) &&
								!(len(res.Trace) == 0 && len(cc.Report.Witness.Trace) == 0) {
								t.Errorf("replayed trace %q, witness trace %q", res.Trace, cc.Report.Witness.Trace)
							}
							if cc.Report.Witness.Kind == "deadlock" && !res.Deadlocked {
								t.Errorf("deadlock witness did not deadlock on replay:\n%s", cc.Report.Witness.Summary())
							}
						}
					}

					// Serial and parallel compositional exploration agree.
					if pc.Report.Ok != cc.Report.Ok ||
						pc.Report.TracesEqual != cc.Report.TracesEqual ||
						pc.Report.Deadlocks != cc.Report.Deadlocks ||
						pc.Report.ComposedStates != cc.Report.ComposedStates {
						t.Errorf("serial and parallel compositional disagree:\nserial:   ok=%v eq=%v dead=%d states=%d\nparallel: ok=%v eq=%v dead=%d states=%d",
							cc.Report.Ok, cc.Report.TracesEqual, cc.Report.Deadlocks, cc.Report.ComposedStates,
							pc.Report.Ok, pc.Report.TracesEqual, pc.Report.Deadlocks, pc.Report.ComposedStates)
					}
				})
			}
		}
	}

	// The shared cache must have been exercised: the corpus re-verifies
	// every entity artifact across fault models, capacities and exploration
	// modes, so hits must dominate misses by the end of the sweep.
	st := arts.Stats()
	if st.EntityHits == 0 {
		t.Errorf("artifact cache recorded no hits over the corpus sweep: %+v", st)
	}
	if st.EntityHits < st.EntityMisses {
		t.Errorf("artifact cache hits (%d) below misses (%d) over the corpus sweep", st.EntityHits, st.EntityMisses)
	}
}
