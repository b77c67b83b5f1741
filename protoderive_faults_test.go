package protoderive

import (
	"os"
	"path/filepath"
	"testing"
)

// corpusProtocol parses and derives one corpus spec.
func corpusProtocol(t *testing.T, name string) *Protocol {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("specs", name+".spec"))
	if err != nil {
		t.Fatal(err)
	}
	proto, err := MustParseService(string(src)).Derive()
	if err != nil {
		t.Fatal(err)
	}
	return proto
}

// TestMultiringConformantUnderSymmetry shows the multiring rows of the
// fault matrix (TestCorpusFaultMatrix) are artifacts of the sweep bounds,
// not a real non-conformance: at channel capacity 3 (one in-flight 1->2
// token message per instance) and a budget that covers its composition,
// multiring is conformant — and the symmetry reduction, which detects its
// three interchangeable instance columns, reaches the same verdict over the
// orbit-quotient state space with the weak-bisimulation check deciding
// directly against the reduced graph.
func TestMultiringConformantUnderSymmetry(t *testing.T) {
	if testing.Short() {
		t.Skip("deep multiring exploration is slow")
	}
	proto := corpusProtocol(t, "multiring")
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
// rows of the fault matrix (TestCorpusFaultMatrix) are a truncation
// artifact, not a real non-conformance: with a state budget that covers its ~100k-state
// composition, the reliable verdict is conformant.
func TestMultiinstanceReliableConformantAtDeeperBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("deep multiinstance exploration is slow")
	}
	proto := corpusProtocol(t, "multiinstance")
	rep, err := proto.Verify(&VerifyOptions{ChannelCap: 1, ObsDepth: 4, MaxStates: 300000, Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok {
		t.Errorf("multiinstance not conformant at 300k states:\n%s", rep.Summary)
	}
}
