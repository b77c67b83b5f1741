package main

import (
	"fmt"
	"math/rand/v2"
	"strings"
)

// newRand returns the benchmark's random stream for one purpose of one
// seed; distinct streams keep, say, the cell order independent of how many
// session seeds were drawn.
func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// Random streams, one per purpose.
const (
	streamOrder uint64 = iota + 1
	streamSessions
	streamRequests // daemon-mix
)

// relaySrc builds the k-instance two-place relay: k syntactically identical
// interleaved columns, each sending one message from site 1 to site 2. The
// concrete product grows exponentially in k; the symmetry orbit quotient
// polynomially.
func relaySrc(k int) string {
	parts := make([]string, k)
	for i := range parts {
		parts[i] = "Ring"
	}
	return "SPEC " + strings.Join(parts, " ||| ") + " WHERE\n  PROC Ring = t1; t2; exit END\nENDSPEC"
}

// simService is a service the sim-check workload runs sessions of.
type simService struct {
	name      string
	src       string
	maxEvents int
}

// generatedSimServices are the three looping services sim-check adds to
// the corpus. Their session lengths sit below the points where the trace
// check's service exploration hits its state cap and reports false
// violations (see README.md).
var generatedSimServices = []simService{
	// Run-dominated: a long session over a three-place loop.
	{"loop3", "SPEC A WHERE PROC A = a1; b2; c3; A END ENDSPEC", 200},
	// Check-dominated: two interleaved loops over four places.
	{"par2", "SPEC A ||| B WHERE PROC A = a1; b2; A END PROC B = c3; d4; B END ENDSPEC", 40},
	// Check-dominated: a looping choice decided at place 1.
	{"choice", "SPEC A WHERE PROC A = (a1; b2; A) [] (c1; d3; A) END ENDSPEC", 16},
}

// freshCell is one template of the daemon-mix fresh-spec grid. The
// message count of a derived fresh spec depends only on its cell; the
// random names only make each spec miss the daemon's cache.
type freshCell struct {
	family string
	places int
	events int
}

func (c freshCell) key() string { return fmt.Sprintf("%s/%d/%d", c.family, c.places, c.events) }

// freshFamilies are the template families: sequencing, a choice decided at
// place 1, interleaving, and tail recursion.
var freshFamilies = []string{"chain", "choice", "parallel", "recursive"}

// freshGrid lists every template cell: 2-5 places, 6-30 events.
func freshGrid() []freshCell {
	var out []freshCell
	for _, f := range freshFamilies {
		for p := 2; p <= 5; p++ {
			for e := 6; e <= 30; e += 6 {
				out = append(out, freshCell{f, p, e})
			}
		}
	}
	return out
}

// nameAlphabet avoids the letters of the send/receive/internal event
// prefixes and every keyword.
const nameAlphabet = "bcdfghjkmnpqtvwxz"

// randomPrefix draws a 6-letter name prefix.
func randomPrefix(rng *rand.Rand) string {
	b := make([]byte, 6)
	for i := range b {
		b[i] = nameAlphabet[rng.IntN(len(nameAlphabet))]
	}
	return string(b)
}

// chainEvents renders n events named prefix_tagI_ at places cycling from
// start through 1..places, joined by "; ".
func chainEvents(prefix, tag string, n, places, start int) string {
	evs := make([]string, n)
	for i := range evs {
		evs[i] = fmt.Sprintf("%s_%s%d_%d", prefix, tag, i, (start+i)%places+1)
	}
	return strings.Join(evs, "; ")
}

// freshSpec renders one spec of a template cell with the given name prefix.
func freshSpec(c freshCell, prefix string) string {
	half := c.events / 2
	switch c.family {
	case "chain":
		return "SPEC " + chainEvents(prefix, "a", c.events, c.places, 0) + "; exit ENDSPEC"
	case "choice":
		// Both alternatives start and end at the same places (R1, R2).
		return "SPEC (" + chainEvents(prefix, "a", half, c.places, 0) + "; exit) [] (" +
			chainEvents(prefix, "b", half, c.places, 0) + "; exit) ENDSPEC"
	case "parallel":
		return "SPEC (" + chainEvents(prefix, "a", half, c.places, 0) + "; exit) ||| (" +
			chainEvents(prefix, "b", half, c.places, c.places-1) + "; exit) ENDSPEC"
	case "recursive":
		return "SPEC L WHERE PROC L = " + chainEvents(prefix, "a", c.events, c.places, 0) + "; L END ENDSPEC"
	}
	panic("unknown template family " + c.family)
}

// abandonSpec renders the corpus multiinstance service under fresh names,
// so each abandoned request misses the cache and makes the daemon explore
// its capped product from scratch.
func abandonSpec(prefix string) string {
	return fmt.Sprintf("SPEC B ||| B WHERE PROC B = (%[1]s_a1; (%[1]s_b2; exit ||| %[1]s_c3; exit)) >> %[1]s_g4; exit END ENDSPEC", prefix)
}
