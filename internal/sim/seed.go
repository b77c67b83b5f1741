package sim

import "math/rand/v2"

// Sub-seed derivation. One run seed (Config.Seed) identifies a whole
// execution, so every random stream of the run — the harness lottery, the
// medium's delays and faults, and each entity runner's scheduling choices —
// needs its own seed derived from it. Deriving them by addition
// (Seed+1, Seed+2, Seed+100+i, as earlier versions did) aliases nearby runs:
// seeds s and s+100 handed entity 0 of one run the scheduling stream of
// entity 100 of the other, and statistical sweeps over consecutive seeds
// (RunMany, the corpus differential tests) silently correlated. Instead,
// sub-seeds are produced by a SplitMix64-style bijective mix over
// (Seed, role, index): changing any input avalanches through all 64 output
// bits, so distinct (seed, role, index) triples give (with overwhelming
// probability) disjoint streams.

// Seed-stream roles. Each random consumer of a run has its own role
// constant, so no two consumers can collide even at equal indices.
const (
	// roleHarness seeds the default accept-all harness.
	roleHarness uint64 = 1
	// roleMedium seeds the medium (delays, losses, duplicates, reorders).
	roleMedium uint64 = 2
	// roleRunner seeds entity runner index i's scheduling stream.
	roleRunner uint64 = 3
)

// splitmix64 is the SplitMix64 output permutation (Steele, Lea & Flood) —
// the finalizer also used by the equivalence engine's signature hashing.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// subSeed derives the seed of one random stream of a run: role separates
// consumer kinds, index separates instances of one kind (entity runners).
// The derivation is a three-round SplitMix64 chain, so nearby run seeds,
// roles and indices all land in unrelated streams.
func subSeed(seed int64, role uint64, index int) int64 {
	h := splitmix64(uint64(seed))
	h = splitmix64(h ^ role*0xd1342543de82ef95)
	h = splitmix64(h ^ uint64(index)*0x2545f4914f6cdd1d)
	return int64(h)
}

// newPCG seeds a PCG stream from a scheduling seed. Seeding is O(1) — the
// previous lagged-Fibonacci source spent ~10µs per entity filling its state
// vector, which dominated short simulation runs (see BenchmarkSimulate).
func newPCG(seed int64) *rand.PCG {
	return rand.NewPCG(uint64(seed), 0x9e3779b97f4a7c15)
}
