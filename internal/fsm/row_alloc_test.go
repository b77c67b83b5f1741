//go:build !race

// The race detector changes allocation counts, so this file is left out of
// race builds.

package fsm

import (
	"strings"
	"testing"

	"repro/internal/lotos"
)

// TestRowAllocsIndependentOfOffers pins the allocations of deriving one
// row: a row of n service offers allocates exactly two more times than a
// row of n internal actions — its Offers and OfferAt slices, each sized
// once — however large n is.
func TestRowAllocsIndependentOfOffers(t *testing.T) {
	// rowAllocs measures deriving the row of the state after "a1" in a
	// choice of n copies of alt. The machine retains only its root, so that
	// state is transient and Row derives it on every call.
	rowAllocs := func(alt string, n int) float64 {
		alts := make([]string, n)
		for i := range alts {
			alts[i] = alt
		}
		sp := lotos.MustParse("SPEC a1; (" + strings.Join(alts, " [] ") + ") ENDSPEC")
		m, err := New(1, sp, Config{MaxStates: 1})
		if err != nil {
			t.Fatal(err)
		}
		root, err := m.Row(m.Root())
		if err != nil {
			t.Fatal(err)
		}
		s := root.To[0]
		if s.ID() >= 0 {
			t.Fatal("the measured state is retained; its row would be derived once")
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := m.Row(s); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, n := range []int{1, 4, 16, 64} {
		offers, internal := rowAllocs("b1; exit", n), rowAllocs("i; exit", n)
		if offers-internal != 2 {
			t.Errorf("n=%d: a row of offers allocates %v times, of internal actions %v: want exactly 2 more", n, offers, internal)
		}
	}
}
