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
// and k=6, with symmetry keys and with identity keys.
func TestDeriveAllocsBounded(t *testing.T) {
	for _, red := range []Reductions{RedPOR | redExplicit, RedPOR.With(RedSymmetry)} {
		for _, k := range []int{2, 6} {
			d := mustDerive(t, relaySrc(k))
			sys, err := New(d.Entities, Config{Reductions: red, Limits: lts.Limits{MaxStates: 1000}})
			if err != nil {
				t.Fatal(err)
			}
			if (sys.sym != nil) != (red&RedSymmetry != 0) {
				t.Fatalf("%v k=%d: symmetry detected = %v", red, k, sys.sym != nil)
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
				t.Logf("%v k=%d, state %v: %d successors, %.1f allocations per derive", red, k, *g, succ, allocs)
				if allocs > deriveAllocBound {
					t.Errorf("%v k=%d, %d successors: %.1f allocations per derive, want at most %d",
						red, k, succ, allocs, deriveAllocBound)
				}
			}
		}
	}
}
