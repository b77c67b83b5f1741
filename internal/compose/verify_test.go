package compose

import (
	"testing"

	"repro/internal/lotos"
	"repro/internal/lts"
)

// TestVerifyExploresServiceOnce: one Verify call explores the service once,
// whichever path produces the verdict, and the report carries that graph —
// also when the verdict comes from the symmetry fallback or from one of the
// compositional path's monolithic fallbacks.
func TestVerifyExploresServiceOnce(t *testing.T) {
	symmetry := func(r *Report) string { return r.Reduction.Fallback }
	compositional := func(r *Report) string { return r.Compositional.Fallback }
	cases := []struct {
		name string
		src  string
		opts VerifyOptions
		// fallback reads the report's fallback marker, which must be set
		// exactly when wantFallback is.
		fallback     func(*Report) string
		wantFallback bool
	}{
		{"monolithic", "SPEC a1; b2; exit ENDSPEC", VerifyOptions{}, symmetry, false},
		{"symmetry-fallback", relaySrc(2), VerifyOptions{ObsDepth: 6, MaxStates: 100000,
			Faults: FaultModel{Loss: true}, Reductions: RedPOR.With(RedSymmetry)}, symmetry, true},
		{"compositional", "SPEC a1; b2; exit ENDSPEC", VerifyOptions{Compositional: true}, compositional, false},
		{"compositional-nonconformant-fallback", "SPEC a1; b2; exit ENDSPEC",
			VerifyOptions{Compositional: true, Faults: FaultModel{Loss: true}}, compositional, true},
		{"compositional-over-cap-fallback", "SPEC A WHERE PROC A = (a1; A >> b2; exit) [] (a1; b2; exit) END ENDSPEC",
			VerifyOptions{Compositional: true, MaxStates: 64}, compositional, true},
	}
	defer func(f func(*lotos.Spec, lts.Limits) (*lts.Graph, error)) { exploreService = f }(exploreService)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var explored []*lts.Graph
			exploreService = func(sp *lotos.Spec, lim lts.Limits) (*lts.Graph, error) {
				g, err := lts.ExploreSpec(sp, lim)
				explored = append(explored, g)
				return g, err
			}
			d := deriveSrc(t, tc.src)
			rep, err := Verify(d.Service.Spec, d.Entities, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(explored) != 1 {
				t.Fatalf("Verify explored the service %d times, want once", len(explored))
			}
			if rep.ServiceGraph != explored[0] {
				t.Error("report does not carry the service graph Verify explored")
			}
			if got := tc.fallback(rep) != ""; got != tc.wantFallback {
				t.Errorf("fallback taken = %v, want %v:\n%s", got, tc.wantFallback, rep.Summary())
			}
		})
	}
}

// TestServiceExploredOncePerCall: a fault-matrix row and an optimizer run
// each explore the service once — every model, and every candidate entity
// set, checks against the one graph of the call's Verifier.
func TestServiceExploredOncePerCall(t *testing.T) {
	defer func(f func(*lotos.Spec, lts.Limits) (*lts.Graph, error)) { exploreService = f }(exploreService)
	explorations := 0
	exploreService = func(sp *lotos.Spec, lim lts.Limits) (*lts.Graph, error) {
		explorations++
		return lts.ExploreSpec(sp, lim)
	}
	models := []FaultModel{Reliable, {Loss: true}, {Duplication: true}, {Reorder: true}}
	d := deriveSrc(t, "SPEC a1; b2; c1; exit ENDSPEC")
	if _, err := NewVerifier(d.Service.Spec, d.Entities, nil).VerifyMatrix(models, VerifyOptions{}); err != nil {
		t.Fatal(err)
	}
	if explorations != 1 {
		t.Errorf("a %d-model VerifyMatrix row explored the service %d times, want once", len(models), explorations)
	}

	explorations = 0
	d = deriveSrc(t, "SPEC A WHERE PROC A = a1; b2; A [] c1; exit END ENDSPEC")
	res, err := OptimizeMessages(d.Service.Spec, d.Entities, VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tried < 2 {
		t.Fatalf("the optimizer tried %d candidates; the check needs several", res.Tried)
	}
	if explorations != 1 {
		t.Errorf("OptimizeMessages (%d candidates) explored the service %d times, want once", res.Tried, explorations)
	}
}

// translatedRows counts the local states whose rows a table has translated.
func translatedRows(tb *table) int {
	tb.mu.RLock()
	defer tb.mu.RUnlock()
	n := 0
	for _, states := range tb.local {
		for _, st := range states {
			if st.trans != nil {
				n++
			}
		}
	}
	return n
}

// TestSymmetricChecksShareTable: the symmetry of the entities is detected
// once, when the Verifier's exact table is built, and every check reads
// that table — symmetry-reduced, plain, and the symmetry fallback — so a
// second symmetric check translates no new entity row.
func TestSymmetricChecksShareTable(t *testing.T) {
	d := deriveSrc(t, multiSrc)
	v := NewVerifier(d.Service.Spec, d.Entities, nil)
	sym := VerifyOptions{ObsDepth: 2, MaxStates: 4000, Reductions: RedPOR.With(RedSymmetry)}
	first, err := v.Verify(sym)
	if err != nil {
		t.Fatal(err)
	}
	if r := first.Reduction; r.SymmetryColumns != 2 || r.OrbitsCollapsed == 0 || r.Fallback != "" {
		t.Fatalf("symmetric check: %+v, want 2 columns, collapsed orbits, no fallback", r)
	}
	tbl := v.exact
	rows := translatedRows(tbl)
	second, err := v.Verify(sym)
	if err != nil {
		t.Fatal(err)
	}
	if got := translatedRows(tbl); got != rows {
		t.Errorf("the second symmetric check translated %d new rows, want none", got-rows)
	}
	if second.ComposedGraph.NumStates() != first.ComposedGraph.NumStates() ||
		second.Reduction.OrbitsCollapsed != first.Reduction.OrbitsCollapsed {
		t.Errorf("second symmetric check: %d states, %d orbits; first: %d states, %d orbits",
			second.ComposedGraph.NumStates(), second.Reduction.OrbitsCollapsed,
			first.ComposedGraph.NumStates(), first.Reduction.OrbitsCollapsed)
	}

	plain := sym
	plain.Reductions = RedPOR
	lossy := sym
	lossy.Faults = FaultModel{Loss: true}
	for _, o := range []VerifyOptions{plain, lossy} {
		r, err := v.Verify(o)
		if err != nil {
			t.Fatal(err)
		}
		if r.Reduction.SymmetryColumns != 0 || (o.Faults.Any() && r.Reduction.Fallback == "") {
			t.Errorf("%s check with %s: %+v, want no symmetry in force (the fallback, under loss)", o.Faults, o.Reductions, r.Reduction)
		}
	}
	if v.exact != tbl {
		t.Error("a later check replaced the Verifier's exact table")
	}
}
