package sim

import (
	"strings"
	"testing"

	"repro/internal/compose"
)

// replayWitnessFor verifies src under the given options and returns the
// derivation plus the witness (failing the test when none is produced).
func replayWitnessFor(t *testing.T, src string, opts compose.VerifyOptions) (*compose.Report, *compose.Witness) {
	t.Helper()
	d := deriveFor(t, src)
	rep, err := compose.Verify(d.Service.Spec, d.Entities, opts)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if rep.Ok() {
		t.Fatalf("expected a non-conformant verdict for %s under %s", src, opts.Faults)
	}
	if rep.Witness == nil {
		t.Fatalf("non-conformant verdict carries no witness:\n%s", rep.Summary())
	}
	return rep, rep.Witness
}

// TestReplayReproducesDeadlockWitness: every deadlock counterexample found by
// exploration is a real execution — the concrete runtime accepts each
// step, produces the witness's observable trace, and ends deadlocked.
func TestReplayReproducesDeadlockWitness(t *testing.T) {
	cases := []struct {
		src    string
		faults compose.FaultModel
		cap    int
	}{
		{"SPEC a1; b2; exit ENDSPEC", compose.FaultModel{Loss: true}, 1},
		{"SPEC a1; b2; c3; exit ENDSPEC", compose.FaultModel{Loss: true}, 2},
		{"SPEC a1; b2; exit [] a1; c2; exit ENDSPEC", compose.FaultModel{Loss: true, Reorder: true}, 2},
		{"SPEC A WHERE\n  PROC A = (a1; A >> b2; exit) [] (a1; b2; exit) END\nENDSPEC",
			compose.FaultModel{Duplication: true}, 2},
	}
	for _, c := range cases {
		d := deriveFor(t, c.src)
		rep, err := compose.Verify(d.Service.Spec, d.Entities, compose.VerifyOptions{ChannelCap: c.cap, Faults: c.faults})
		if err != nil {
			t.Fatalf("verify: %v", err)
		}
		w := rep.Witness
		if w == nil || w.Kind != compose.WitnessDeadlock {
			t.Fatalf("%s faults=%s: expected a deadlock witness, got %+v", c.src, c.faults, w)
		}
		res, err := ReplayWitness(d.Entities, w)
		if err != nil {
			t.Fatalf("%s faults=%s: replay: %v", c.src, c.faults, err)
		}
		if got, want := strings.Join(res.Trace, " "), strings.Join(w.Trace, " "); got != want {
			t.Errorf("%s faults=%s: replay trace %q, witness trace %q", c.src, c.faults, got, want)
		}
		if !res.Deadlocked {
			t.Errorf("%s faults=%s: replay did not reproduce the deadlock", c.src, c.faults)
		}
		if res.Terminated {
			t.Errorf("%s faults=%s: deadlock replay claims successful termination", c.src, c.faults)
		}
		if res.Steps != len(w.Steps) {
			t.Errorf("%s faults=%s: replayed %d of %d steps", c.src, c.faults, res.Steps, len(w.Steps))
		}
	}
}

// TestReplayRecordsFaultStats: the medium counters after replay reflect the
// injected fault events, tying the abstract fault transitions to concrete
// medium operations.
func TestReplayRecordsFaultStats(t *testing.T) {
	d := deriveFor(t, "SPEC a1; b2; exit ENDSPEC")
	rep, err := compose.Verify(d.Service.Spec, d.Entities, compose.VerifyOptions{Faults: compose.FaultModel{Loss: true}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ReplayWitness(d.Entities, rep.Witness)
	if err != nil {
		t.Fatal(err)
	}
	if res.MediumStats.Dropped == 0 {
		t.Errorf("loss replay recorded no drops: %+v", res.MediumStats)
	}

	dupSrc := "SPEC A WHERE\n  PROC A = (a1; A >> b2; exit) [] (a1; b2; exit) END\nENDSPEC"
	d2 := deriveFor(t, dupSrc)
	rep2, err := compose.Verify(d2.Service.Spec, d2.Entities, compose.VerifyOptions{ChannelCap: 2, Faults: compose.FaultModel{Duplication: true}})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := ReplayWitness(d2.Entities, rep2.Witness)
	if err != nil {
		t.Fatal(err)
	}
	if res2.MediumStats.Duplicated == 0 {
		t.Errorf("duplication replay recorded no duplicates: %+v", res2.MediumStats)
	}
}

// TestReplayRejectsTamperedWitness: the replayer validates every step against
// the concrete system — a corrupted transition index or fault position is an
// error, not a silent divergence.
func TestReplayRejectsTamperedWitness(t *testing.T) {
	_, w := replayWitnessFor(t, "SPEC a1; b2; exit ENDSPEC",
		compose.VerifyOptions{Faults: compose.FaultModel{Loss: true}})
	d := deriveFor(t, "SPEC a1; b2; exit ENDSPEC")

	tamper := func(mutate func(*compose.Witness)) *compose.Witness {
		cp := *w
		cp.Steps = append([]compose.WitnessStep(nil), w.Steps...)
		mutate(&cp)
		return &cp
	}

	// An out-of-range transition index on the first entity step.
	bad := tamper(func(cw *compose.Witness) {
		for i := range cw.Steps {
			if cw.Steps[i].TIndex >= 0 {
				cw.Steps[i].TIndex = 99
				return
			}
		}
		t.Fatal("witness has no entity step to tamper with")
	})
	if _, err := ReplayWitness(d.Entities, bad); err == nil {
		t.Error("replay accepted a witness with an out-of-range transition index")
	}

	// A loss step pointing at an empty queue position.
	bad = tamper(func(cw *compose.Witness) {
		for i := range cw.Steps {
			if cw.Steps[i].Kind == compose.StepLoss {
				cw.Steps[i].Index = 7
				return
			}
		}
		t.Fatal("witness has no loss step to tamper with")
	})
	if _, err := ReplayWitness(d.Entities, bad); err == nil {
		t.Error("replay accepted a loss step at an unoccupied queue position")
	}

	// A nil witness is rejected outright.
	if _, err := ReplayWitness(d.Entities, nil); err == nil {
		t.Error("replay accepted a nil witness")
	}
}

// TestReplayConformantProtocolHasNoWitness: a conformant verdict carries no
// counterexample to replay.
func TestReplayConformantProtocolHasNoWitness(t *testing.T) {
	d := deriveFor(t, "SPEC a1; b2; exit ENDSPEC")
	rep, err := compose.Verify(d.Service.Spec, d.Entities, compose.VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("expected conformance under the reliable medium:\n%s", rep.Summary())
	}
	if rep.Witness != nil {
		t.Errorf("conformant verdict carries a witness:\n%s", rep.Witness.Summary())
	}
}
