package sim

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/lotos"
	"repro/internal/medium"
)

// TestSubSeedDisjointStreams is the regression for the additive sub-seed
// derivation (Harness=Seed+1, Medium=Seed+2, runner i=Seed+100+i): under
// that scheme nearby run seeds alias — run s's runner-1 stream was run
// (s+100)'s harness stream, and a sweep over consecutive seeds reused
// entity streams across runs. The SplitMix64 mix must hand every
// (seed, role, index) triple of a dense seed range a distinct stream seed.
func TestSubSeedDisjointStreams(t *testing.T) {
	seen := map[int64]string{}
	check := func(seed int64, role uint64, index int, desc string) {
		t.Helper()
		v := subSeed(seed, role, index)
		if prev, dup := seen[v]; dup {
			t.Fatalf("sub-seed collision: %s and %s both derive %d", prev, desc, v)
		}
		seen[v] = desc
	}
	for _, base := range []int64{-130, 0, 1 << 40} {
		for off := int64(0); off < 130; off++ {
			seed := base + off
			check(seed, roleHarness, 0, fmt.Sprintf("seed %d harness", seed))
			check(seed, roleMedium, 0, fmt.Sprintf("seed %d medium", seed))
			for i := 0; i < 4; i++ {
				check(seed, roleRunner, i, fmt.Sprintf("seed %d runner %d", seed, i))
			}
		}
	}
}

// TestSubSeedAvalanches spot-checks that single-bit input changes flip many
// output bits (no structured relation between neighbouring streams).
func TestSubSeedAvalanches(t *testing.T) {
	for _, seed := range []int64{0, 1, -2, 42} {
		a, b := subSeed(seed, roleRunner, 0), subSeed(seed+1, roleRunner, 0)
		if n := popcount64(uint64(a) ^ uint64(b)); n < 16 {
			t.Errorf("seed %d vs %d: only %d differing bits", seed, seed+1, n)
		}
	}
}

func popcount64(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// TestPinnedMediumSeedReproduces checks medium seed resolution: an
// explicit non-zero Medium.Seed survives, an unset one is the subSeed of
// the run seed (including for Seed=-2, which the earlier additive scheme
// mapped to exactly 0, the unset value). End to end, two lossy runs under
// different run seeds but one pinned medium seed make the same first drop
// decision, which is consumed before any schedule divergence can matter.
func TestPinnedMediumSeedReproduces(t *testing.T) {
	if explicit := resolveSeeds(Config{Seed: 7, Medium: medium.Config{Seed: 42}}); explicit.Medium.Seed != 42 {
		t.Errorf("explicit medium seed remapped to %d", explicit.Medium.Seed)
	}
	for _, seed := range []int64{7, -2} {
		if got, want := resolveSeeds(Config{Seed: seed}).Medium.Seed, subSeed(seed, roleMedium, 0); got != want || got == 0 {
			t.Errorf("Seed=%d: derived medium seed %d, want subSeed %d", seed, got, want)
		}
	}
	d := deriveFor(t, "SPEC a1; b2; exit ENDSPEC")
	run := func(runSeed int64) medium.Stats {
		res, err := Run(d.Entities, Config{
			Seed:   runSeed,
			Medium: medium.Config{LossRate: 0.5, Seed: 99},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Medium
	}
	a, b := run(3), run(4)
	if (a.Dropped > 0) != (b.Dropped > 0) {
		t.Errorf("pinned medium seed diverged: drops %d vs %d", a.Dropped, b.Dropped)
	}
}

// goroutineCounter is a harness that records runtime.NumGoroutine at every
// Choose, around an accept-all harness.
type goroutineCounter struct {
	*AcceptAll
	seen []int
}

func (h *goroutineCounter) Choose(place int, offered []lotos.Event) int {
	h.seen = append(h.seen, runtime.NumGoroutine())
	return h.AcceptAll.Choose(place, offered)
}

// TestRunStartsNoGoroutines checks that a run with every medium feature on
// — wire delays, loss and the ARQ layer's retransmissions — executes on the
// caller's goroutine alone: the goroutine count seen from inside the run
// is the count before it.
func TestRunStartsNoGoroutines(t *testing.T) {
	d := deriveFor(t, "SPEC a1; b2; c3; exit >> d2; e1; exit ENDSPEC")
	h := &goroutineCounter{AcceptAll: NewAcceptAll(1)}
	before := runtime.NumGoroutine()
	res, err := Run(d.Entities, Config{
		Seed:     1,
		Reliable: true,
		Medium:   medium.Config{LossRate: 0.3, MaxDelay: 3},
		Harness:  h,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || len(h.seen) == 0 {
		t.Fatalf("run did not complete (%d choices): %+v", len(h.seen), res.Blocked)
	}
	for i, n := range h.seen {
		if n != before {
			t.Fatalf("choice %d saw %d goroutines, %d before the run", i, n, before)
		}
	}
}
