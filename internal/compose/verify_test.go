package compose

import (
	"fmt"
	"sync"
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

// TestVerifierConcurrentLabels checks that a product graph's labels stay
// readable while later checks on the same Verifier intern new ones. The
// service is a chain of twelve primitives, each first reached one
// observable step deeper, checked at capacities 1 and 2 under every fault
// model: shallow checks (depth 2) reach only its first primitives, deep
// ones (depth 12) all of them. The shallow checks run first; then, while
// the deep checks translate rows and intern the later primitives into the
// table the products share, the shallow reports are rendered over and
// over (labels, weak traces, witness) and the shallow checks run again and
// again.
// Every rendering must equal the same check's on a Verifier of its own,
// and the race detector must stay quiet (make check repeats this test
// under -race).
func TestVerifierConcurrentLabels(t *testing.T) {
	const chain = "SPEC a1; b2; c3; d1; e2; f3; g1; h2; j3; k1; l2; m3; exit ENDSPEC"
	var shallow, deep []VerifyOptions
	for _, chanCap := range []int{1, 2} {
		for _, fm := range []FaultModel{{}, {Loss: true}, {Duplication: true}, {Reorder: true}} {
			o := VerifyOptions{ObsDepth: 2, MaxStates: 20000, ChannelCap: chanCap, Faults: fm}
			shallow = append(shallow, o)
			o.ObsDepth = 12
			deep = append(deep, o)
		}
	}
	verifier := func() *Verifier {
		d := mustDerive(t, chain)
		return NewVerifier(d.Service.Spec, d.Entities, nil)
	}
	render := func(r *Report) string {
		return fmt.Sprint(r.ComposedGraph.Labels(), lts.WeakTraces(r.ComposedGraph, r.ObsDepth), r.Witness)
	}
	alone := func(opts []VerifyOptions) []string {
		out := make([]string, len(opts))
		for i, o := range opts {
			r, err := verifier().Verify(o)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = render(r)
		}
		return out
	}
	wantShallow, wantDeep := alone(shallow), alone(deep)

	// verifyAll runs the checks at once on v, each on its own goroutine,
	// and renders each report.
	v := verifier()
	verifyAll := func(opts []VerifyOptions, reports []*Report, got []string, wg *sync.WaitGroup) {
		for i, o := range opts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r, err := v.Verify(o)
				if err != nil {
					t.Error(err)
					return
				}
				reports[i], got[i] = r, render(r)
			}()
		}
	}
	first := make([]*Report, len(shallow))
	var wg sync.WaitGroup
	verifyAll(shallow, first, make([]string, len(shallow)), &wg)
	wg.Wait()
	if t.Failed() {
		return
	}

	done := make(chan struct{})
	var readers sync.WaitGroup
	for i, r := range first {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				if got := render(r); got != wantShallow[i] {
					t.Errorf("shallow check %d rendered, while deep checks ran:\n%s\nalone:\n%s", i, got, wantShallow[i])
					return
				}
				again, err := v.Verify(shallow[i])
				if err != nil {
					t.Error(err)
					return
				}
				if got := render(again); got != wantShallow[i] {
					t.Errorf("shallow check %d, run again while deep checks ran, renders\n%s\nalone:\n%s", i, got, wantShallow[i])
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	gotDeep := make([]string, len(deep))
	verifyAll(deep, make([]*Report, len(deep)), gotDeep, &wg)
	wg.Wait()
	close(done)
	readers.Wait()
	for i := range deep {
		if gotDeep[i] != wantDeep[i] {
			t.Errorf("deep check %d renders\n%s\nalone\n%s", i, gotDeep[i], wantDeep[i])
		}
	}
}
