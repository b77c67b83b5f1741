package compose

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/equiv"
	"repro/internal/lotos"
	"repro/internal/lts"
)

func TestFaultModelString(t *testing.T) {
	cases := []struct {
		f    FaultModel
		want string
	}{
		{FaultModel{}, "reliable"},
		{FaultModel{Loss: true}, "loss"},
		{FaultModel{Duplication: true}, "dup"},
		{FaultModel{Reorder: true}, "reorder"},
		{FaultModel{Loss: true, Reorder: true}, "loss+reorder"},
		{FaultModel{Loss: true, Duplication: true, Reorder: true}, "loss+dup+reorder"},
	}
	for _, c := range cases {
		if got := c.f.String(); got != c.want {
			t.Errorf("%+v.String() = %q, want %q", c.f, got, c.want)
		}
	}
}

func TestParseFaultModel(t *testing.T) {
	for _, c := range []struct {
		in   string
		want FaultModel
	}{
		{"", FaultModel{}},
		{"reliable", FaultModel{}},
		{"none", FaultModel{}},
		{"loss", FaultModel{Loss: true}},
		{"dup", FaultModel{Duplication: true}},
		{"duplication", FaultModel{Duplication: true}},
		{"reorder", FaultModel{Reorder: true}},
		{"reordering", FaultModel{Reorder: true}},
		{"LOSS+Dup", FaultModel{Loss: true, Duplication: true}},
		{" loss + reorder ", FaultModel{Loss: true, Reorder: true}},
	} {
		got, err := ParseFaultModel(c.in)
		if err != nil {
			t.Errorf("ParseFaultModel(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseFaultModel(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
	if _, err := ParseFaultModel("gremlins"); err == nil {
		t.Error("ParseFaultModel accepted an unknown fault")
	}
}

// TestFaultModelJSON: a fault model travels as its canonical name, decodes
// through ParseFaultModel, and an unknown name is rejected.
func TestFaultModelJSON(t *testing.T) {
	for _, f := range []FaultModel{{}, {Loss: true}, {Loss: true, Duplication: true}, {Duplication: true, Reorder: true}} {
		b, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if want := `"` + f.String() + `"`; string(b) != want {
			t.Errorf("Marshal(%+v) = %s, want %s", f, b, want)
		}
		var back FaultModel
		if err := json.Unmarshal(b, &back); err != nil || back != f {
			t.Errorf("Unmarshal(%s) = %+v, %v; want %+v", b, back, err, f)
		}
	}
	var f FaultModel
	if err := f.UnmarshalText([]byte("loss+gremlins")); err == nil {
		t.Errorf("UnmarshalText accepted an unknown fault: %+v", f)
	}
}

func TestParseFaultModels(t *testing.T) {
	ms, err := ParseFaultModels("loss,dup,loss,duplication,reorder")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Fatalf("expected 3 deduplicated models, got %v", ms)
	}
	want := []string{"loss", "dup", "reorder"}
	for i, m := range ms {
		if m.String() != want[i] {
			t.Errorf("model %d = %s, want %s", i, m, want[i])
		}
	}
	if _, err := ParseFaultModels("loss,bogus"); err == nil {
		t.Error("ParseFaultModels accepted an unknown fault")
	}
}

// TestLossDeadlocksSimplePair: the minimal two-place protocol stalls forever
// when the medium may drop its only synchronization message — the Section-6
// reliability assumption made concrete.
func TestLossDeadlocksSimplePair(t *testing.T) {
	rep := verifySrc(t, "SPEC a1; b2; exit ENDSPEC", VerifyOptions{Faults: FaultModel{Loss: true}})
	if rep.Ok() {
		t.Fatalf("expected loss to break the protocol:\n%s", rep.Summary())
	}
	if rep.ComposedDeadlocks == 0 {
		t.Errorf("expected a deadlock under loss:\n%s", rep.Summary())
	}
	if rep.Witness == nil {
		t.Fatal("non-conformant verdict carries no witness")
	}
	if rep.Witness.Kind != WitnessDeadlock {
		t.Errorf("witness kind = %s, want %s", rep.Witness.Kind, WitnessDeadlock)
	}
	sawLoss := false
	for _, st := range rep.Witness.Steps {
		if st.Kind == StepLoss {
			sawLoss = true
		}
	}
	if !sawLoss {
		t.Errorf("deadlock witness contains no loss step:\n%s", rep.Witness.Summary())
	}
}

// TestDuplicationAbsorbedAtCapacityOne: with capacity-1 channels a full
// buffer has no room for the duplicate, so the duplication fault model is
// degenerate and the verdict equals the reliable one.
func TestDuplicationAbsorbedAtCapacityOne(t *testing.T) {
	src := "SPEC a1; b2; c1; exit ENDSPEC"
	reliable := verifySrc(t, src, VerifyOptions{ChannelCap: 1})
	dup := verifySrc(t, src, VerifyOptions{ChannelCap: 1, Faults: FaultModel{Duplication: true}})
	if !reliable.Ok() || !dup.Ok() {
		t.Fatalf("expected both conformant: reliable=%v dup=%v", reliable.Ok(), dup.Ok())
	}
	if reliable.ComposedGraph.NumStates() != dup.ComposedGraph.NumStates() {
		t.Errorf("cap-1 duplication changed the state space: %d vs %d states",
			reliable.ComposedGraph.NumStates(), dup.ComposedGraph.NumStates())
	}
}

// TestDuplicationBreaksAtCapacityTwo: with room for the duplicate the
// receiver faces an unconsumable extra copy and the protocol deadlocks.
func TestDuplicationBreaksAtCapacityTwo(t *testing.T) {
	src := "SPEC A WHERE\n  PROC A = (a1; A >> b2; exit) [] (a1; b2; exit) END\nENDSPEC"
	rep := verifySrc(t, src, VerifyOptions{ChannelCap: 2, Faults: FaultModel{Duplication: true}})
	if rep.Ok() {
		t.Fatalf("expected duplication at cap 2 to break the protocol:\n%s", rep.Summary())
	}
	if rep.Witness == nil {
		t.Fatal("non-conformant verdict carries no witness")
	}
	sawDup := false
	for _, st := range rep.Witness.Steps {
		if st.Kind == StepDuplicate {
			sawDup = true
		}
	}
	if !sawDup {
		t.Errorf("witness contains no duplication step:\n%s", rep.Witness.Summary())
	}
}

// TestFaultExplorationAgreesWithoutReduction: the partial-order reduction's
// receive case is disabled under fault models (a receive does not commute
// with faults on its channel). The remaining sole-internal reduction must
// not change any verdict: compare reduced and unreduced exploration.
func TestFaultExplorationAgreesWithoutReduction(t *testing.T) {
	srcs := []string{
		"SPEC a1; b2; exit ENDSPEC",
		"SPEC a1; b2; c3; exit ENDSPEC",
		"SPEC a1; b2; exit [] a1; c2; exit ENDSPEC",
		"SPEC a1; exit ||| b2; exit ENDSPEC",
	}
	models := []FaultModel{{Loss: true}, {Duplication: true}, {Reorder: true}, {Loss: true, Duplication: true, Reorder: true}}
	for _, src := range srcs {
		d, err := core.Derive(lotos.MustParse(src), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, fm := range models {
			for _, chanCap := range []int{1, 2} {
				reduced := verifySrc(t, src, VerifyOptions{ChannelCap: chanCap, Faults: fm})
				sysNR, err := New(d.Entities, Config{ChannelCap: chanCap, Faults: fm, Reductions: RedNone,
					Limits: lts.Limits{MaxObsDepth: DefaultObsDepth}})
				if err != nil {
					t.Fatal(err)
				}
				gNR, err := sysNR.Explore()
				if err != nil {
					t.Fatal(err)
				}
				// Reduction must neither hide nor invent deadlocks, and the
				// observable behaviour must stay weakly trace-equivalent.
				if (reduced.ComposedDeadlocks > 0) != (len(gNR.Deadlocks()) > 0) {
					t.Errorf("%s faults=%s cap=%d: reduced deadlocks=%d, unreduced=%d",
						src, fm, chanCap, reduced.ComposedDeadlocks, len(gNR.Deadlocks()))
				}
				if !equiv.WeakTraceEquivalent(reduced.ComposedGraph, gNR, DefaultObsDepth) {
					t.Errorf("%s faults=%s cap=%d: reduced and unreduced explorations are not weakly trace-equivalent",
						src, fm, chanCap)
				}
			}
		}
	}
}

// TestTraceDiffLimitOption: the per-side cap on diagnostic example traces is
// configurable and defaults to 5 (the previously hardcoded value).
func TestTraceDiffLimitOption(t *testing.T) {
	// A service whose derivation deviates (disabling, broadcast interrupt)
	// produces a rich trace diff.
	src := "SPEC a1; b2; c3; exit [> d3; exit ENDSPEC"
	def := verifySrc(t, src, VerifyOptions{})
	if def.Ok() || def.TracesEqual {
		t.Skipf("expected a failing trace comparison to exercise the diff")
	}
	if len(def.OnlyService) > DefaultTraceDiffLimit || len(def.OnlyComposed) > DefaultTraceDiffLimit {
		t.Errorf("default diff exceeds %d per side: %d / %d",
			DefaultTraceDiffLimit, len(def.OnlyService), len(def.OnlyComposed))
	}
	one := verifySrc(t, src, VerifyOptions{TraceDiffLimit: 1})
	if len(one.OnlyService) > 1 || len(one.OnlyComposed) > 1 {
		t.Errorf("diff limit 1 exceeded: %d / %d", len(one.OnlyService), len(one.OnlyComposed))
	}
	ten := verifySrc(t, src, VerifyOptions{TraceDiffLimit: 10})
	if len(ten.OnlyService)+len(ten.OnlyComposed) < len(one.OnlyService)+len(one.OnlyComposed) {
		t.Errorf("raising the diff limit shrank the diff: limit1=%d+%d limit10=%d+%d",
			len(one.OnlyService), len(one.OnlyComposed), len(ten.OnlyService), len(ten.OnlyComposed))
	}
}

// TestDeadlockWitnessMinimality: the extracted counterexample is a shortest
// path — its step count equals the BFS depth of the nearest deadlock state.
// Regression guard for the parent-pointer BFS in lts.ShortestPathTo.
func TestDeadlockWitnessMinimality(t *testing.T) {
	srcs := []string{
		"SPEC a1; b2; exit ENDSPEC",
		"SPEC a1; b2; c3; exit ENDSPEC",
		"SPEC a1; b2; c1; exit ENDSPEC",
		"SPEC a1; b2; exit [] a1; c2; exit ENDSPEC",
	}
	for _, src := range srcs {
		for _, fm := range []FaultModel{{Loss: true}, {Loss: true, Duplication: true, Reorder: true}} {
			rep := verifySrc(t, src, VerifyOptions{ChannelCap: 2, Faults: fm})
			if rep.Witness == nil || rep.Witness.Kind != WitnessDeadlock {
				t.Fatalf("%s faults=%s: expected a deadlock witness, got %+v", src, fm, rep.Witness)
			}
			min := -1
			for _, d := range rep.ComposedGraph.Deadlocks() {
				if min == -1 || rep.ComposedGraph.Depth[d] < min {
					min = rep.ComposedGraph.Depth[d]
				}
			}
			if len(rep.Witness.Steps) != min {
				t.Errorf("%s faults=%s: witness has %d steps, nearest deadlock at BFS depth %d",
					src, fm, len(rep.Witness.Steps), min)
			}
		}
	}
}

// TestWitnessSummaryRendering: the rendering names the verdict, the fault
// model and every step.
func TestWitnessSummaryRendering(t *testing.T) {
	rep := verifySrc(t, "SPEC a1; b2; exit ENDSPEC", VerifyOptions{Faults: FaultModel{Loss: true}})
	if rep.Witness == nil {
		t.Fatal("no witness")
	}
	s := rep.Witness.Summary()
	for _, want := range []string{"deadlock", "faults=loss", "[send]", "[loss]"} {
		if !strings.Contains(s, want) {
			t.Errorf("witness summary missing %q:\n%s", want, s)
		}
	}
}
