package protoderive

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// matrixModels is the fault-matrix column set: the paper's reliable medium
// plus each single-fault model.
var matrixModels = []FaultModel{{}, {Loss: true}, {Duplication: true}, {Reorder: true}}

// matrixOpts are the corpus matrix bounds — the same budget as the main
// corpus sweep, so the matrix stays fast enough for the -race CI run.
var matrixOpts = VerifyOptions{ObsDepth: 4, MaxStates: 20000}

// cellGolden freezes the expected verdict of one fault-matrix cell.
type cellGolden struct {
	ok      bool
	witness string // witness kind, "" = no witness extracted
}

// corpusMatrixGolden is the recorded fault matrix of the corpus at
// matrixOpts bounds, keyed "spec/capN/model".
//
// Reading the table:
//   - The reliable column is conformant for every spec the Section-5
//     theorem covers. example3 and example6 use the disabling operator "[>",
//     which the theorem excludes; the Section-3.3 broadcast implementation
//     deviates by design (EXPERIMENTS.md, E11), so those rows fail even
//     reliably. multiinstance is conformant (see
//     TestMultiinstanceReliableConformantAtDeeperBounds) but its ~100k-state
//     composition overflows the sweep's MaxStates budget, and the bounded
//     comparison then reports a spurious trace difference — with the
//     explored composed graph truncated, witness extraction is
//     conservatively skipped, hence ok=false with no witness.
//   - Message loss deadlocks every protocol: the derived entities assume a
//     reliable medium (Section 6), so a lost synchronization message stalls
//     its receiver forever.
//   - Duplication at capacity 1 is degenerate: a full channel absorbs the
//     duplicate (the buffer has no room for a second copy), so cap-1 cells
//     equal the reliable column. At capacity 2 the duplicate arrives and
//     the protocols deadlock on the unconsumed extra copy.
//   - Adjacent reordering needs two distinct messages in flight on one
//     channel; at these depths the corpus protocols keep at most one
//     distinct message per channel, so reorder columns match reliable ones
//     (except example3's cap-2 row, where reordering the interrupt
//     broadcast against a data message yields an extra trace).
var corpusMatrixGolden = map[string]cellGolden{
	"anbn/cap1/reliable": {ok: true}, "anbn/cap1/loss": {ok: false, witness: "deadlock"},
	"anbn/cap1/dup": {ok: true}, "anbn/cap1/reorder": {ok: true},
	"anbn/cap2/reliable": {ok: true}, "anbn/cap2/loss": {ok: false, witness: "deadlock"},
	"anbn/cap2/dup": {ok: false, witness: "deadlock"}, "anbn/cap2/reorder": {ok: true},

	"example3/cap1/reliable": {ok: false, witness: "deadlock"}, "example3/cap1/loss": {ok: false, witness: "deadlock"},
	"example3/cap1/dup": {ok: false, witness: "deadlock"}, "example3/cap1/reorder": {ok: false, witness: "deadlock"},
	"example3/cap2/reliable": {ok: false, witness: "deadlock"}, "example3/cap2/loss": {ok: false, witness: "deadlock"},
	"example3/cap2/dup": {ok: false, witness: "deadlock"}, "example3/cap2/reorder": {ok: false, witness: "extra-trace"},

	"example5/cap1/reliable": {ok: true}, "example5/cap1/loss": {ok: false, witness: "deadlock"},
	"example5/cap1/dup": {ok: true}, "example5/cap1/reorder": {ok: true},
	"example5/cap2/reliable": {ok: true}, "example5/cap2/loss": {ok: false, witness: "deadlock"},
	"example5/cap2/dup": {ok: false, witness: "deadlock"}, "example5/cap2/reorder": {ok: true},

	"example6/cap1/reliable": {ok: false, witness: "extra-trace"}, "example6/cap1/loss": {ok: false, witness: "deadlock"},
	"example6/cap1/dup": {ok: false, witness: "extra-trace"}, "example6/cap1/reorder": {ok: false, witness: "extra-trace"},
	"example6/cap2/reliable": {ok: false, witness: "extra-trace"}, "example6/cap2/loss": {ok: false, witness: "deadlock"},
	"example6/cap2/dup": {ok: false, witness: "extra-trace"}, "example6/cap2/reorder": {ok: false, witness: "extra-trace"},

	// farm dispatches over a synchronization gate; its fault behaviour
	// follows the standard pattern (loss deadlocks everywhere, the cap-2
	// duplicate deadlocks on the unconsumed extra copy).
	"farm/cap1/reliable": {ok: true}, "farm/cap1/loss": {ok: false, witness: "deadlock"},
	"farm/cap1/dup": {ok: true}, "farm/cap1/reorder": {ok: true},
	"farm/cap2/reliable": {ok: true}, "farm/cap2/loss": {ok: false, witness: "deadlock"},
	"farm/cap2/dup": {ok: false, witness: "deadlock"}, "farm/cap2/reorder": {ok: true},

	// multiring's three-instance composition overflows the sweep budget in
	// every cell exactly like multiinstance (and is additionally conformant
	// only at channel capacity 3 — see
	// TestMultiringConformantUnderSymmetry), so every row is the same
	// truncation artifact: ok=false with extraction skipped.
	"multiring/cap1/reliable": {ok: false}, "multiring/cap1/loss": {ok: false},
	"multiring/cap1/dup": {ok: false}, "multiring/cap1/reorder": {ok: false},
	"multiring/cap2/reliable": {ok: false}, "multiring/cap2/loss": {ok: false},
	"multiring/cap2/dup": {ok: false}, "multiring/cap2/reorder": {ok: false},

	"multiinstance/cap1/reliable": {ok: false}, "multiinstance/cap1/loss": {ok: false},
	"multiinstance/cap1/dup": {ok: false}, "multiinstance/cap1/reorder": {ok: false},
	"multiinstance/cap2/reliable": {ok: false}, "multiinstance/cap2/loss": {ok: false},
	"multiinstance/cap2/dup": {ok: false}, "multiinstance/cap2/reorder": {ok: false},

	"session/cap1/reliable": {ok: true}, "session/cap1/loss": {ok: false, witness: "deadlock"},
	"session/cap1/dup": {ok: true}, "session/cap1/reorder": {ok: true},
	"session/cap2/reliable": {ok: true}, "session/cap2/loss": {ok: false, witness: "deadlock"},
	"session/cap2/dup": {ok: false, witness: "deadlock"}, "session/cap2/reorder": {ok: true},

	"transport/cap1/reliable": {ok: true}, "transport/cap1/loss": {ok: false, witness: "deadlock"},
	"transport/cap1/dup": {ok: true}, "transport/cap1/reorder": {ok: true},
	"transport/cap2/reliable": {ok: true}, "transport/cap2/loss": {ok: false, witness: "deadlock"},
	"transport/cap2/dup": {ok: false, witness: "deadlock"}, "transport/cap2/reorder": {ok: true},

	// barrier's four entities exchange at most one distinct message per
	// channel even at capacity 2, so duplication stays absorbed and only
	// loss deadlocks it.
	"barrier/cap1/reliable": {ok: true}, "barrier/cap1/loss": {ok: false, witness: "deadlock"},
	"barrier/cap1/dup": {ok: true}, "barrier/cap1/reorder": {ok: true},
	"barrier/cap2/reliable": {ok: true}, "barrier/cap2/loss": {ok: false, witness: "deadlock"},
	"barrier/cap2/dup": {ok: true}, "barrier/cap2/reorder": {ok: true},

	// nesteddisable stacks three disabling layers, so like example3/example6
	// its interrupt broadcast deviates from the service even reliably.
	"nesteddisable/cap1/reliable": {ok: false, witness: "extra-trace"}, "nesteddisable/cap1/loss": {ok: false, witness: "deadlock"},
	"nesteddisable/cap1/dup": {ok: false, witness: "extra-trace"}, "nesteddisable/cap1/reorder": {ok: false, witness: "extra-trace"},
	"nesteddisable/cap2/reliable": {ok: false, witness: "extra-trace"}, "nesteddisable/cap2/loss": {ok: false, witness: "deadlock"},
	"nesteddisable/cap2/dup": {ok: false, witness: "deadlock"}, "nesteddisable/cap2/reorder": {ok: false, witness: "extra-trace"},

	"pipeline/cap1/reliable": {ok: true}, "pipeline/cap1/loss": {ok: false, witness: "deadlock"},
	"pipeline/cap1/dup": {ok: true}, "pipeline/cap1/reorder": {ok: true},
	"pipeline/cap2/reliable": {ok: true}, "pipeline/cap2/loss": {ok: false, witness: "deadlock"},
	"pipeline/cap2/dup": {ok: false, witness: "deadlock"}, "pipeline/cap2/reorder": {ok: true},
}

// usesDisable reports whether the spec source uses the disabling operator,
// which the Section-5 theorem excludes (the derived interrupt broadcast
// deviates by design — EXPERIMENTS.md, E11).
func usesDisable(src string) bool { return strings.Contains(src, "[>") }

// corpusProtocols parses and derives every corpus spec, skipping the ones
// that violate restrictions R1–R3.
func corpusProtocols(t *testing.T) map[string]*Protocol {
	t.Helper()
	out := map[string]*Protocol{}
	for _, file := range corpusFiles(t) {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		svc, err := ParseService(string(src))
		if err != nil {
			var se *SpecError
			if errors.As(err, &se) && se.Rule != "" {
				continue
			}
			t.Fatalf("%s: parse: %v", file, err)
		}
		proto, err := svc.Derive()
		if err != nil {
			t.Fatalf("%s: derive: %v", file, err)
		}
		out[strings.TrimSuffix(filepath.Base(file), ".spec")] = proto
	}
	if len(out) == 0 {
		t.Fatal("no usable corpus specs")
	}
	return out
}

// TestCorpusFaultMatrix verifies every corpus spec under every fault model
// at channel capacities 1 and 2, asserting:
//
//   - the verdict and witness kind of every cell match the recorded golden
//     matrix (in particular, the reliable column is conformant for every
//     theorem-covered spec);
//   - serial and parallel exploration agree on every cell (verdict, state
//     counts, deadlock counts);
//   - every extracted counterexample replays through the runtime
//     interpreter to exactly the reported divergence (deadlock cells
//     re-deadlock, and the replayed observable trace equals the witness
//     trace).
func TestCorpusFaultMatrix(t *testing.T) {
	protos := corpusProtocols(t)
	for name, proto := range protos {
		for _, chanCap := range []int{1, 2} {
			opts := matrixOpts
			opts.ChannelCap = chanCap
			if name == "multiinstance" || name == "multiring" {
				// Every multiinstance/multiring cell overflows any affordable
				// budget (the compositions have ~100k+ states; fault models
				// grow them further), so the verdicts are identical truncation
				// artifacts at 4k and at 20k states — use the cheap budget.
				opts.MaxStates = 4000
			}
			serial, err := proto.VerifyMatrix(matrixModels, &opts)
			if err != nil {
				t.Fatalf("%s cap=%d: %v", name, chanCap, err)
			}
			popts := opts
			popts.Parallel = true
			popts.Workers = 4
			parallel, err := proto.VerifyMatrix(matrixModels, &popts)
			if err != nil {
				t.Fatalf("%s cap=%d parallel: %v", name, chanCap, err)
			}
			for i, cell := range serial {
				key := name + "/cap" + string(rune('0'+chanCap)) + "/" + cell.Faults
				t.Run(key, func(t *testing.T) {
					golden, known := corpusMatrixGolden[key]
					if !known {
						t.Fatalf("cell %s missing from golden matrix: ok=%v", key, cell.Report.Ok)
					}
					gotWitness := ""
					if cell.Report.Witness != nil {
						gotWitness = cell.Report.Witness.Kind
					}
					if cell.Report.Ok != golden.ok || gotWitness != golden.witness {
						t.Errorf("golden mismatch: got ok=%v witness=%q, want ok=%v witness=%q\n%s",
							cell.Report.Ok, gotWitness, golden.ok, golden.witness, cell.Report.Summary)
					}

					// Serial and parallel exploration must agree cell by cell.
					pc := parallel[i]
					if pc.Faults != cell.Faults {
						t.Fatalf("parallel matrix order diverged: %s vs %s", pc.Faults, cell.Faults)
					}
					if pc.Report.Ok != cell.Report.Ok ||
						pc.Report.TracesEqual != cell.Report.TracesEqual ||
						pc.Report.Deadlocks != cell.Report.Deadlocks ||
						pc.Report.ServiceStates != cell.Report.ServiceStates ||
						pc.Report.ComposedStates != cell.Report.ComposedStates {
						t.Errorf("serial and parallel disagree:\nserial:   ok=%v eq=%v dead=%d states=%d\nparallel: ok=%v eq=%v dead=%d states=%d",
							cell.Report.Ok, cell.Report.TracesEqual, cell.Report.Deadlocks, cell.Report.ComposedStates,
							pc.Report.Ok, pc.Report.TracesEqual, pc.Report.Deadlocks, pc.Report.ComposedStates)
					}

					// Every extracted counterexample must replay to its
					// reported divergence — through the AST interpreter and
					// through the compiled FSM engine, with identical
					// results (the compiled tables preserve per-state
					// transition order, so the witness's pinned indices
					// select the same transitions).
					if cell.Report.Witness != nil {
						res, err := proto.Replay(cell.Report.Witness)
						if err != nil {
							t.Fatalf("replay: %v\n%s", err, cell.Report.Witness.Summary())
						}
						if !reflect.DeepEqual(res.Trace, cell.Report.Witness.Trace) &&
							!(len(res.Trace) == 0 && len(cell.Report.Witness.Trace) == 0) {
							t.Errorf("replayed trace %q, witness trace %q", res.Trace, cell.Report.Witness.Trace)
						}
						if cell.Report.Witness.Kind == "deadlock" && !res.Deadlocked {
							t.Errorf("deadlock witness did not deadlock on replay:\n%s", cell.Report.Witness.Summary())
						}
						fres, err := proto.ReplayWith(cell.Report.Witness, "fsm")
						if err != nil {
							t.Fatalf("fsm replay: %v\n%s", err, cell.Report.Witness.Summary())
						}
						if !reflect.DeepEqual(fres, res) {
							t.Errorf("fsm replay diverges from ast replay:\n ast: %+v\n fsm: %+v", res, fres)
						}
					}

					// A failed cell over fully-explored graphs must carry a
					// witness; truncated graphs may conservatively skip
					// extraction (multiinstance).
					if !cell.Report.Ok && cell.Report.Complete && cell.Report.Witness == nil {
						t.Error("non-conformant complete cell carries no witness")
					}
				})
			}
		}
	}
}

// TestCorpusReliableColumnConformant pins the acceptance claim directly:
// under the paper's reliable FIFO medium every theorem-covered corpus spec
// verifies conformant at the sweep bounds. Disabling specs (the "[>"
// operator) are excluded by the Section-5 theorem itself; multiinstance is
// covered by TestMultiinstanceReliableConformantAtDeeperBounds (its verdict
// at sweep bounds is a MaxStates-truncation artifact).
func TestCorpusReliableColumnConformant(t *testing.T) {
	for _, file := range corpusFiles(t) {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		name := strings.TrimSuffix(filepath.Base(file), ".spec")
		if usesDisable(string(src)) || name == "multiinstance" || name == "multiring" {
			continue
		}
		svc, err := ParseService(string(src))
		if err != nil {
			var se *SpecError
			if errors.As(err, &se) && se.Rule != "" {
				continue
			}
			t.Fatalf("%s: %v", name, err)
		}
		proto, err := svc.Derive()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, chanCap := range []int{1, 2} {
			opts := matrixOpts
			opts.ChannelCap = chanCap
			rep, err := proto.Verify(&opts)
			if err != nil {
				t.Fatalf("%s cap=%d: %v", name, chanCap, err)
			}
			if !rep.Ok {
				t.Errorf("%s cap=%d: reliable medium not conformant:\n%s", name, chanCap, rep.Summary)
			}
			if rep.Faults != "reliable" {
				t.Errorf("%s: report fault model = %q, want reliable", name, rep.Faults)
			}
		}
	}
}

// TestMultiringConformantUnderSymmetry shows the multiring rows of the
// golden matrix are artifacts of the sweep bounds, not a real
// non-conformance: at channel capacity 3 (one in-flight 1->2 token message
// per instance) and a budget that covers its composition, multiring is
// conformant — and the symmetry reduction, which detects its three
// interchangeable instance columns, reaches the same verdict over the
// orbit-quotient state space with the weak-bisimulation check deciding
// directly against the reduced graph.
func TestMultiringConformantUnderSymmetry(t *testing.T) {
	if testing.Short() {
		t.Skip("deep multiring exploration is slow")
	}
	src, err := os.ReadFile(filepath.Join("specs", "multiring.spec"))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := ParseService(string(src))
	if err != nil {
		t.Fatal(err)
	}
	proto, err := svc.Derive()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := proto.Verify(&VerifyOptions{
		ChannelCap: 3, ObsDepth: 14, MaxStates: 200000, Parallel: true,
		Reductions: "por+symmetry",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok || !rep.Complete || !rep.WeakBisimilar {
		t.Errorf("multiring not conformant under symmetry at cap 3:\n%s", rep.Summary)
	}
	if rep.Reduction == nil || rep.Reduction.SymmetryColumns != 3 {
		t.Errorf("expected 3 symmetric columns, got %+v", rep.Reduction)
	}
	if rep.Reduction != nil && rep.Reduction.OrbitsCollapsed == 0 {
		t.Error("symmetry detected but no orbits collapsed")
	}
}

// TestMultiinstanceReliableConformantAtDeeperBounds shows the multiinstance
// rows of the golden matrix are a truncation artifact, not a real
// non-conformance: with a state budget that covers its ~100k-state
// composition, the reliable verdict is conformant.
func TestMultiinstanceReliableConformantAtDeeperBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("deep multiinstance exploration is slow")
	}
	src, err := os.ReadFile(filepath.Join("specs", "multiinstance.spec"))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := ParseService(string(src))
	if err != nil {
		t.Fatal(err)
	}
	proto, err := svc.Derive()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := proto.Verify(&VerifyOptions{ChannelCap: 1, ObsDepth: 4, MaxStates: 300000, Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok {
		t.Errorf("multiinstance not conformant at 300k states:\n%s", rep.Summary)
	}
}

// TestReplayDecodedWitness: a witness decoded from JSON, as a daemon client
// receives it, replays to the same trace and deadlock flag as the witness
// Verify returned.
func TestReplayDecodedWitness(t *testing.T) {
	for _, c := range []struct {
		spec string
		cap  int
		f    FaultModel
	}{
		{"transport", 1, FaultModel{Loss: true}},
		{"example3", 2, FaultModel{Reorder: true}},
	} {
		src, err := os.ReadFile(filepath.Join("specs", c.spec+".spec"))
		if err != nil {
			t.Fatal(err)
		}
		proto, err := MustParseService(string(src)).Derive()
		if err != nil {
			t.Fatal(err)
		}
		opts := matrixOpts
		opts.ChannelCap, opts.Faults = c.cap, c.f
		rep, err := proto.Verify(&opts)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Witness == nil {
			t.Fatalf("%s/%s: no witness", c.spec, c.f)
		}
		b, err := json.Marshal(rep.Witness)
		if err != nil {
			t.Fatal(err)
		}
		var decoded Witness
		if err := json.Unmarshal(b, &decoded); err != nil {
			t.Fatalf("%s/%s: decoding witness: %v", c.spec, c.f, err)
		}
		want, err := proto.Replay(rep.Witness)
		if err != nil {
			t.Fatal(err)
		}
		got, err := proto.Replay(&decoded)
		if err != nil {
			t.Fatalf("%s/%s: replaying decoded witness: %v", c.spec, c.f, err)
		}
		if !reflect.DeepEqual(got.Trace, want.Trace) || got.Deadlocked != want.Deadlocked {
			t.Errorf("%s/%s: decoded replay trace %q deadlocked=%t, original %q deadlocked=%t",
				c.spec, c.f, got.Trace, got.Deadlocked, want.Trace, want.Deadlocked)
		}
	}
}
