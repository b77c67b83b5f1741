//go:build !race

// The race detector changes allocation counts, so this file is left out of
// race builds.

package compose

import (
	"testing"

	"repro/internal/lts"
)

// deriveAllocBound is what one derive call may allocate once its local
// states are derived: the slab of target states, the slab of their
// vectors, and the string their keys are cut from.
const deriveAllocBound = 3

// TestDeriveAllocsBounded checks that a product derivation allocates a fixed
// number of times, not once per successor or per key part: the relay root's
// derivation yields k successors for k columns, and costs the same at k=2
// and k=6, with symmetry keys and with identity keys, over the exact rows
// and over the minimized rows of a compositional system.
func TestDeriveAllocsBounded(t *testing.T) {
	cases := []struct {
		name string
		red  Reductions
		comp bool
	}{
		{"por", RedPOR | redExplicit, false},
		{"por+symmetry", RedPOR.With(RedSymmetry), false},
		{"compositional", RedPOR | redExplicit, true},
	}
	for _, c := range cases {
		for _, k := range []int{2, 6} {
			d := mustDerive(t, relaySrc(k))
			cfg := Config{Reductions: c.red, Limits: lts.Limits{MaxStates: 1000}}
			var sys *System
			var err error
			if c.comp {
				sys, err = NewVerifier(nil, d.Entities, nil).quotientSystem(compileAll(t, d.Entities), cfg)
			} else {
				sys, err = New(d.Entities, cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			if (sys.sym != nil) != (c.red&RedSymmetry != 0) {
				t.Fatalf("%s k=%d: symmetry detected = %v", c.name, k, sys.sym != nil)
			}
			root := sys.rootState()
			// A state with a message in flight: the first column's t1, then
			// its send.
			out, _, err := sys.derive(root, nil, false)
			if err != nil {
				t.Fatal(err)
			}
			mid := out[0].To.(*gstate)
			if out, _, err = sys.derive(mid, nil, false); err != nil {
				t.Fatal(err)
			}
			sent := out[0].To.(*gstate)
			for _, g := range []*gstate{root, sent} {
				out, _, err := sys.derive(g, nil, false)
				if err != nil {
					t.Fatal(err)
				}
				succ := len(out)
				allocs := testing.AllocsPerRun(50, func() {
					out, _, _ = sys.derive(g, out[:0], false)
				})
				t.Logf("%s k=%d, state %v: %d successors, %.1f allocations per derive", c.name, k, *g, succ, allocs)
				if allocs > deriveAllocBound {
					t.Errorf("%s k=%d, %d successors: %.1f allocations per derive, want at most %d",
						c.name, k, succ, allocs, deriveAllocBound)
				}
			}
		}
	}
}

// TestOccScanAllocs checks that scanning an occurrence path allocates
// nothing unless a component is renamed.
func TestOccScanAllocs(t *testing.T) {
	for _, c := range occCases {
		n := 0
		if allocs := testing.AllocsPerRun(50, func() { occSym.occColumns(c.occ, func(int) { n++ }) }); allocs != 0 {
			t.Errorf("occColumns(%q): %.1f allocations", c.occ, allocs)
		}
		if c.want != c.occ {
			continue
		}
		r := colRenaming{sym: occSym, col: c.col}
		if allocs := testing.AllocsPerRun(50, func() { r.Occ(c.occ) }); allocs != 0 {
			t.Errorf("unchanged column %d Occ(%q): %.1f allocations", c.col, c.occ, allocs)
		}
	}
}
