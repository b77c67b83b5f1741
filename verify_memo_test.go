package protoderive

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// freshProtocol derives a protocol that has verified nothing.
func freshProtocol(t *testing.T, src string) *Protocol {
	t.Helper()
	svc, err := ParseService(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := svc.Derive()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// sameWireReport requires two reports of one check to agree field for
// field on the wire, apart from what may differ between two runs of the
// check: the wall-clock "...Nanos" timings, and the compositional reuse
// counts ("reused", "reuseRatio"), which count machines an earlier call on
// the same Protocol compiled.
func sameWireReport(t *testing.T, what string, want, got *VerifyReport) {
	t.Helper()
	if w, g := comparableJSON(t, want), comparableJSON(t, got); w != g {
		t.Errorf("%s: report differs:\n--- want\n%s\n--- got\n%s", what, w, g)
	}
}

// comparableJSON renders a report as indented JSON without the fields
// sameWireReport ignores.
func comparableJSON(t *testing.T, rep *VerifyReport) string {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("encoding report: %v", err)
	}
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatalf("decoding report: %v", err)
	}
	var strip func(any)
	strip = func(v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, x := range v {
				if strings.HasSuffix(k, "Nanos") || k == "reused" || k == "reuseRatio" {
					delete(v, k)
					continue
				}
				strip(x)
			}
		case []any:
			for _, x := range v {
				strip(x)
			}
		}
	}
	strip(v)
	if b, err = json.MarshalIndent(v, "", "  "); err != nil {
		t.Fatalf("encoding report: %v", err)
	}
	return string(b)
}

// TestWarmVerifyMatchesFresh: a Protocol's verification memo never changes
// a report's verdict, graphs or witness. Every fault-matrix corpus cell is verified on one Protocol per
// spec, twice over the spec's cells in seeded shuffled orders — in the
// second pass each cell's Protocol has already verified every other cell —
// and each report equals the cell's report on a fresh Protocol on every
// wire field but the timings and reuse counts (sameWireReport).
func TestWarmVerifyMatchesFresh(t *testing.T) {
	g := theGate(t)
	bySpec := map[string][]*corpusCell{}
	for _, c := range g.matrix() {
		bySpec[c.spec.name] = append(bySpec[c.spec.name], c)
	}
	names := make([]string, 0, len(bySpec))
	for name := range bySpec {
		names = append(names, name)
	}
	sort.Strings(names)
	rng := rand.New(rand.NewSource(1))
	for _, name := range names {
		cells := bySpec[name]
		orders := [][]int{rng.Perm(len(cells)), rng.Perm(len(cells))}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			fresh := make([]*VerifyReport, len(cells))
			for i, c := range cells {
				rep, err := freshProtocol(t, c.spec.src).Verify(&c.opts)
				if err != nil {
					t.Fatalf("%s: %v", c.key, err)
				}
				fresh[i] = rep
			}
			warm := freshProtocol(t, cells[0].spec.src)
			for pass, order := range orders {
				for _, i := range order {
					c := cells[i]
					rep, err := warm.Verify(&c.opts)
					if err != nil {
						t.Fatalf("%s: %v", c.key, err)
					}
					sameWireReport(t, fmt.Sprintf("%s (pass %d)", c.key, pass+1), fresh[i], rep)
				}
			}
		})
	}
}

// TestWarmSymmetricVerifyMatchesFresh: symmetry-reduced checks read the
// Protocol's one exact table, whichever checks filled it. On the two
// symmetric corpus specs, por+symmetry and default cells under the
// reliable and loss models are verified on one Protocol in two orders —
// plain cells first, then symmetric cells first — and each report equals
// the cell's report on a fresh Protocol (sameWireReport).
func TestWarmSymmetricVerifyMatchesFresh(t *testing.T) {
	for _, name := range []string{"multiinstance", "multiring"} {
		src, err := os.ReadFile(filepath.Join("specs", name+".spec"))
		if err != nil {
			t.Fatal(err)
		}
		var opts []VerifyOptions
		for _, red := range []string{"", "por+symmetry"} {
			for _, fm := range []FaultModel{{}, {Loss: true}} {
				opts = append(opts, VerifyOptions{ObsDepth: 2, MaxStates: multiMaxStates, Faults: fm, Reductions: red})
			}
		}
		fresh := make([]*VerifyReport, len(opts))
		for i := range opts {
			if fresh[i], err = freshProtocol(t, string(src)).Verify(&opts[i]); err != nil {
				t.Fatal(err)
			}
		}
		if r := fresh[2].Reduction; r.OrbitsCollapsed == 0 {
			t.Fatalf("%s reliable por+symmetry collapsed no orbits: %+v", name, r)
		}
		warm := freshProtocol(t, string(src))
		for pass, order := range [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}} {
			for _, i := range order {
				rep, err := warm.Verify(&opts[i])
				if err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("%s %s reductions=%q (pass %d)", name, opts[i].Faults, opts[i].Reductions, pass+1)
				sameWireReport(t, what, fresh[i], rep)
			}
		}
	}
}

// TestProtocolVerifyConcurrent: concurrent Verify calls on one Protocol, at
// mixed channel capacities and fault models, monolithic and compositional,
// share its verification memo and report exactly what the same calls made
// one at a time report. On multiring, whose three columns are symmetric,
// por+symmetry and default checks under the reliable and loss models fill
// the Protocol's one exact table at once: symmetric systems, the loss
// model's symmetry fallback and plain systems. make check runs it under
// -race -count=10.
func TestProtocolVerifyConcurrent(t *testing.T) {
	for _, name := range []string{"example6", "session", "multiring"} {
		src, err := os.ReadFile(filepath.Join("specs", name+".spec"))
		if err != nil {
			t.Fatal(err)
		}
		var opts []VerifyOptions
		if name == "multiring" {
			for _, red := range []string{"por+symmetry", ""} {
				for _, fm := range []FaultModel{{}, {Loss: true}} {
					opts = append(opts, VerifyOptions{ObsDepth: 2, MaxStates: 2000, Faults: fm, Reductions: red})
				}
			}
		} else {
			for _, chanCap := range []int{1, 2} {
				for _, fm := range matrixModels {
					for _, compositional := range []bool{false, true} {
						o := matrixOpts
						o.ChannelCap, o.Faults, o.Compositional = chanCap, fm, compositional
						opts = append(opts, o)
					}
				}
			}
		}
		serial := freshProtocol(t, string(src))
		want := make([]*VerifyReport, len(opts))
		for i := range opts {
			if want[i], err = serial.Verify(&opts[i]); err != nil {
				t.Fatal(err)
			}
		}
		if name == "multiring" {
			// The symmetric checks must really collapse orbits, and the
			// loss check must really take the symmetry fallback.
			if r := want[0].Reduction; r.OrbitsCollapsed == 0 || r.Fallback != "" {
				t.Fatalf("multiring reliable por+symmetry: %+v, want collapsed orbits and no fallback", r)
			}
			if r := want[1].Reduction; r.Fallback == "" {
				t.Fatalf("multiring loss por+symmetry: %+v, want the symmetry fallback", r)
			}
		}

		// Every options set twice, all at once, on one fresh Protocol.
		shared := freshProtocol(t, string(src))
		got := make([]*VerifyReport, 2*len(opts))
		errs := make([]error, len(got))
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i], errs[i] = shared.Verify(&opts[i%len(opts)])
			}(i)
		}
		wg.Wait()
		for i, rep := range got {
			o := opts[i%len(opts)]
			what := fmt.Sprintf("%s cap%d/%s compositional=%v reductions=%q", name, o.ChannelCap, o.Faults, o.Compositional, o.Reductions)
			if errs[i] != nil {
				t.Fatalf("%s: %v", what, errs[i])
			}
			sameWireReport(t, what, want[i%len(opts)], rep)
		}
	}
}
