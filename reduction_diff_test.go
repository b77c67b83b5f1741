package protoderive

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestPermutationInvariance is the symmetry property test: permuting the
// interleaved blocks of a specification must not change any verdict field —
// with and without the symmetry reduction, which canonicalizes state
// vectors to orbit representatives and so must be insensitive to the
// textual order of identical columns (and conservatively off, but still
// order-insensitive, when a block breaks the symmetry).
func TestPermutationInvariance(t *testing.T) {
	shapes := []struct {
		name   string
		blocks []string
	}{
		{"identical3", []string{"t1; t2; exit", "t1; t2; exit", "t1; t2; exit"}},
		{"pair+odd", []string{"a1; b2; exit", "a1; b2; exit", "c1; d2; exit"}},
		{"distinct", []string{"a1; b2; exit", "c2; exit", "d1; e3; exit"}},
	}
	perms := [][]int{{0, 1, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, shape := range shapes {
		for _, red := range []string{"por", "por+symmetry"} {
			var want *VerifyReport
			for _, perm := range perms {
				parts := make([]string, len(perm))
				for i, p := range perm {
					parts[i] = "(" + shape.blocks[p] + ")"
				}
				src := "SPEC " + strings.Join(parts, " ||| ") + " ENDSPEC"
				svc, err := ParseService(src)
				if err != nil {
					t.Fatalf("%s: %v\n%s", shape.name, err, src)
				}
				proto, err := svc.Derive()
				if err != nil {
					t.Fatalf("%s: %v\n%s", shape.name, err, src)
				}
				rep, err := proto.Verify(&VerifyOptions{ChannelCap: 2, ObsDepth: 4, MaxStates: 50000, Reductions: red})
				if err != nil {
					t.Fatalf("%s: %v\n%s", shape.name, err, src)
				}
				if want == nil {
					want = rep
					continue
				}
				if rep.Ok != want.Ok || rep.Complete != want.Complete ||
					rep.WeakBisimilar != want.WeakBisimilar || rep.TracesEqual != want.TracesEqual ||
					rep.Deadlocks != want.Deadlocks ||
					rep.ComposedStates != want.ComposedStates || rep.ServiceStates != want.ServiceStates {
					t.Errorf("%s/%s: permutation %v changed the verdict:\n--- first\n%s\n--- permuted\n%s",
						shape.name, red, perm, want.Summary, rep.Summary)
				}
			}
		}
	}
}

// TestMultiinstanceCompletesUnderSymmetry is the tentpole acceptance test:
// the two-instance corpus shape whose concrete product has 129,665 states
// (121,007 under POR alone) must verify TO COMPLETION within a 100k-state
// budget once the symmetry reduction folds the two interchangeable columns
// — direct evidence the orbit quotient, not the budget, is what makes it
// fit.
func TestMultiinstanceCompletesUnderSymmetry(t *testing.T) {
	if testing.Short() {
		t.Skip("full multiinstance exploration skipped in -short mode")
	}
	proto := corpusProtocol(t, "multiinstance")
	opts := VerifyOptions{ChannelCap: 1, ObsDepth: 4, MaxStates: 100000, Parallel: true, Reductions: "por+symmetry"}
	rep, err := proto.Verify(&opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok {
		t.Fatalf("multiinstance not conformant under symmetry:\n%s", rep.Summary)
	}
	if rep.Reduction == nil || rep.Reduction.SymmetryColumns != 2 {
		t.Fatalf("expected 2 symmetric columns, got %+v", rep.Reduction)
	}
	if rep.ComposedStates >= opts.MaxStates {
		t.Errorf("orbit quotient (%d states) did not fit the %d budget", rep.ComposedStates, opts.MaxStates)
	}
	if rep.ComposedStates >= 121007 {
		t.Errorf("orbit quotient (%d states) is no smaller than the POR-only product (121007)", rep.ComposedStates)
	}
	if rep.Reduction.OrbitsCollapsed == 0 {
		t.Error("symmetry reported no collapsed orbits")
	}
}

// TestReductionPermutationRandomized crosses the two property dimensions:
// randomized k-block interleavings (some blocks duplicated, some not) are
// verified under every reduction set across block permutations, asserting
// order-invariance of the verdict everywhere.
func TestReductionPermutationRandomized(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized permutation sweep skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(99))
	atoms := []string{"a1; exit", "b2; exit", "a1; b2; exit", "c3; exit", "b2; c3; exit"}
	for round := 0; round < 8; round++ {
		k := 2 + rng.Intn(2)
		blocks := make([]string, k)
		base := atoms[rng.Intn(len(atoms))]
		for i := range blocks {
			if rng.Intn(2) == 0 {
				blocks[i] = base // duplicate: symmetric column
			} else {
				blocks[i] = atoms[rng.Intn(len(atoms))]
			}
		}
		var want *VerifyReport
		for p := 0; p < 3; p++ {
			perm := rng.Perm(k)
			parts := make([]string, k)
			for i, idx := range perm {
				parts[i] = "(" + blocks[idx] + ")"
			}
			src := "SPEC " + strings.Join(parts, " ||| ") + " ENDSPEC"
			svc, err := ParseService(src)
			if err != nil {
				t.Fatalf("round %d: %v\n%s", round, err, src)
			}
			proto, err := svc.Derive()
			if err != nil {
				t.Fatalf("round %d: %v\n%s", round, err, src)
			}
			rep, err := proto.Verify(&VerifyOptions{
				ChannelCap: 1, ObsDepth: 4, MaxStates: 50000,
				Reductions: "all", SpillBudget: 1 << 11,
			})
			if err != nil {
				t.Fatalf("round %d: %v\n%s", round, err, src)
			}
			if want == nil {
				want = rep
				continue
			}
			if rep.Ok != want.Ok || rep.Complete != want.Complete ||
				rep.TracesEqual != want.TracesEqual || rep.Deadlocks != want.Deadlocks ||
				rep.ComposedStates != want.ComposedStates {
				t.Errorf("round %d: permutation %v changed the verdict under %q:\n--- first\n%s\n--- permuted\n%s",
					round, perm, "all", want.Summary, rep.Summary)
			}
		}
	}
}

// FuzzExploreReduced pushes arbitrary sources through every reduction set
// against the unreduced baseline. Invariants: no panic escapes, conformant
// verdicts never carry witnesses, every witness replays, and — when the
// unreduced exploration did not hit the state cap — the reduced verdict
// agrees with the unreduced one.
func FuzzExploreReduced(f *testing.F) {
	for _, src := range []string{
		"SPEC a1; b2; exit ENDSPEC",
		"SPEC (a1; exit) ||| (a1; exit) ENDSPEC",
		"SPEC B ||| B WHERE\n  PROC B = t1; t2; exit END\nENDSPEC",
		"SPEC (a1; b2; exit) ||| (c3; exit) ENDSPEC",
		"SPEC hide g in (a1; g; exit |[g]| g; b2; exit) ENDSPEC",
	} {
		f.Add(src, byte(0), byte(0), byte(1))
		f.Add(src, byte(2), byte(1), byte(1))
		f.Add(src, byte(7), byte(3), byte(2))
	}
	reds := []string{"default", "none", "por", "symmetry", "spill", "por+symmetry", "por+spill", "all"}
	f.Fuzz(func(t *testing.T, src string, redBits, faultBits, chanCap byte) {
		svc, err := ParseService(src)
		if err != nil {
			failOnInternal(t, src, err)
			return
		}
		proto, err := svc.Derive()
		if err != nil {
			failOnInternal(t, src, err)
			return
		}
		opts := VerifyOptions{
			Faults: FaultModel{
				Loss:        faultBits&1 != 0,
				Duplication: faultBits&2 != 0,
				Reorder:     faultBits&4 != 0,
			},
			ChannelCap:  int(chanCap%3) + 1,
			ObsDepth:    3,
			MaxStates:   2000,
			SpillBudget: 1 << 10,
		}
		opts.Reductions = reds[int(redBits)%len(reds)]
		rep, err := proto.Verify(&opts)
		if err != nil {
			failOnInternal(t, src, err)
			return
		}
		if rep.Ok && rep.Witness != nil {
			t.Fatalf("conformant reduced verdict carries a witness\ninput: %q red=%s", src, opts.Reductions)
		}
		if rep.Witness != nil {
			res, err := proto.Replay(rep.Witness)
			if err != nil {
				t.Fatalf("reduced witness does not replay: %v\ninput: %q red=%s", err, src, opts.Reductions)
			}
			if fmt.Sprint(res.Trace) != fmt.Sprint(rep.Witness.Trace) {
				t.Fatalf("replay trace %v != witness trace %v\ninput: %q red=%s", res.Trace, rep.Witness.Trace, src, opts.Reductions)
			}
		}
		bopts := opts
		bopts.Reductions = "none"
		base, err := proto.Verify(&bopts)
		if err != nil {
			failOnInternal(t, src, err)
			return
		}
		if baseCapped := !base.Complete && base.ComposedStates >= opts.MaxStates; !baseCapped && rep.Ok != base.Ok {
			t.Fatalf("reduced verdict %t disagrees with unreduced %t\ninput: %q red=%s faults=%s",
				rep.Ok, base.Ok, src, opts.Reductions, base.Faults)
		}
	})
}
