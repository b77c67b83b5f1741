package compose

import (
	"fmt"
	"sort"
	"strings"
)

// Reductions selects which state-space reductions the product exploration
// applies. It is a bitmask so ablation benchmarks and the differential
// soundness suite can enable each reduction independently.
//
// The zero value selects the default reduction set (partial-order reduction
// only — the behaviour the explorer has always had). An explicitly empty
// set — every interleaving explored — is RedNone.
type Reductions uint8

const (
	// RedPOR is the ample-set partial-order reduction: when every local
	// transition of some entity is invisible and commutes with every other
	// entity's moves, that entity's transitions are explored as the state's
	// only global moves (see System.derive for the exact conditions).
	RedPOR Reductions = 1 << iota
	// RedSymmetry is the instance-symmetry reduction: |||-interleaved
	// syntactically identical entity instances are detected at compose time
	// and every global state is keyed by a canonical representative of its
	// permutation orbit, so the visited set stores one state per orbit.
	RedSymmetry
	// RedSpill is the disk-spilling visited set: when the in-memory visited
	// index crosses the configured byte budget, sorted runs are spilled to
	// temp files and frontier batches deduplicate against them by merge, so
	// exploration scales past memory.
	RedSpill

	// redExplicit marks a mask that was built explicitly, so that an empty
	// explicit mask (RedNone) is distinguishable from the zero-value default.
	redExplicit
)

// RedNone is the explicitly empty reduction set: every interleaving is
// explored, nothing spills, nothing is canonicalized.
const RedNone = redExplicit

// RedAll enables every reduction.
const RedAll = RedPOR | RedSymmetry | RedSpill

// Has reports whether the mask (taken literally, without default resolution)
// contains the given reduction bit.
func (r Reductions) Has(bit Reductions) bool { return r&bit != 0 }

// Without returns an explicit mask with the given bits cleared. Unlike plain
// bit-clearing, the result stays distinguishable from the zero-value default
// even when no bits remain.
func (r Reductions) Without(bits Reductions) Reductions {
	return (r &^ bits) | redExplicit
}

// With returns an explicit mask with the given bits set.
func (r Reductions) With(bits Reductions) Reductions {
	return r | bits | redExplicit
}

// String renders the canonical form parsed by ParseReductions: the enabled
// reduction names joined with "+", "none" for an explicitly empty mask, and
// "default" for the zero value.
func (r Reductions) String() string {
	if r == 0 {
		return "default"
	}
	var parts []string
	if r&RedPOR != 0 {
		parts = append(parts, "por")
	}
	if r&RedSymmetry != 0 {
		parts = append(parts, "symmetry")
	}
	if r&RedSpill != 0 {
		parts = append(parts, "spill")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "+")
}

// ParseReductions parses a reduction-set name: "" or "default" (the default
// set), "none", "all", or reduction names ("por", "symmetry"/"sym",
// "spill") joined with "+" or ",".
func ParseReductions(s string) (Reductions, error) {
	switch strings.TrimSpace(strings.ToLower(s)) {
	case "", "default":
		return 0, nil
	case "none":
		return RedNone, nil
	case "all":
		return RedAll | redExplicit, nil
	}
	var out Reductions
	for _, tok := range strings.FieldsFunc(s, func(r rune) bool { return r == '+' || r == ',' }) {
		switch strings.TrimSpace(strings.ToLower(tok)) {
		case "por":
			out |= RedPOR
		case "symmetry", "sym":
			out |= RedSymmetry
		case "spill":
			out |= RedSpill
		case "":
		default:
			return 0, fmt.Errorf("compose: unknown reduction %q (want por, symmetry, spill, all, none)", tok)
		}
	}
	return out | redExplicit, nil
}

// ReductionNames lists the canonical individual reduction names.
func ReductionNames() []string {
	names := []string{"por", "symmetry", "spill"}
	sort.Strings(names)
	return names
}

// effectiveReductions resolves the reduction set a Config selects: the
// explicit mask when one was set, otherwise the default (POR only).
func (c Config) effectiveReductions() Reductions {
	if c.Reductions != 0 {
		return c.Reductions &^ redExplicit
	}
	return RedPOR
}

// ReductionStats reports the work the enabled reductions did during one
// product exploration, and — for a verification — whether a symmetry-reduced
// non-conformant verdict fell back to an unreduced re-verification.
type ReductionStats struct {
	// Enabled is the canonical name of the effective reduction set.
	Enabled string `json:"enabled"`
	// SymmetryColumns is the number of interchangeable |||-instance columns
	// detected (0 when symmetry was off or not applicable to the entities).
	SymmetryColumns int `json:"symmetryColumns,omitempty"`
	// OrbitsCollapsed counts canonicalizations that mapped a state onto a
	// different orbit representative (a strict reduction of the visited set).
	OrbitsCollapsed int64 `json:"orbitsCollapsed,omitempty"`
	// AmpleHits counts states whose successor set was reduced to one
	// entity's ample transition set.
	AmpleHits int64 `json:"ampleHits,omitempty"`
	// SpillRuns is the number of sorted visited-index runs spilled to disk;
	// SpilledBytes their total size; PeakMemBytes the high-water estimate of
	// the in-memory visited index.
	SpillRuns    int   `json:"spillRuns,omitempty"`
	SpilledBytes int64 `json:"spilledBytes,omitempty"`
	PeakMemBytes int64 `json:"peakMemBytes,omitempty"`
	// Fallback records why a reduced verification was re-run without
	// symmetry (witness extraction and deadlock counts must come from the
	// unreduced product so counterexamples replay byte-for-byte).
	Fallback string `json:"fallback,omitempty"`
}
