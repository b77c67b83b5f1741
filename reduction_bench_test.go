package protoderive

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/compose"
	"repro/internal/lts"
)

// bigRingSrc builds a k-instance two-place relay: k syntactically identical
// interleaved columns, each sending one message from site 1 to site 2. The
// concrete product grows exponentially in k (every interleaving of k
// identical columns is a distinct state); the symmetry orbit quotient grows
// with the MULTISETS of column signatures — polynomially (measured ≈ k^6.5
// at capacity 1) — which is what lets instance counts far beyond the
// unreduced horizon explore to completion at all.
func bigRingSrc(k int) string {
	parts := make([]string, k)
	for i := range parts {
		parts[i] = "Ring"
	}
	return "SPEC " + strings.Join(parts, " ||| ") + " WHERE\n  PROC Ring = t1; t2; exit END\nENDSPEC"
}

// BenchmarkReductionBigK is the out-of-core scaling lane: k identical relay
// instances — 5× the two-instance corpus shape's instance count and, at
// k=10, a concrete state space ~10^4× multiinstance's 129,665 states —
// explored TO COMPLETION under symmetry with the spilling visited index
// held at a 1 MiB budget. The reported metrics carry the acceptance
// evidence: `states` (the orbit quotient's size), `peak_mem_bytes` (the
// visited index's bounded residency, ≤ budget + one entry) and
// `spilled_bytes` (what went to disk instead of RAM).
func BenchmarkReductionBigK(b *testing.B) {
	for _, k := range []int{5, 10} {
		entities := deriveBenchEntities(b, bigRingSrc(k))
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var stats *lts.SpillStats
			for i := 0; i < b.N; i++ {
				sys, err := compose.New(entities, compose.Config{
					ChannelCap: 1,
					// Stats-only counting takes no depth limit (it retains no
					// edges); the relay bodies are finite, so the exploration
					// terminates on its own.
					Limits:      lts.Limits{MaxStates: 2000000},
					Reductions:  compose.RedAll.With(0),
					SpillBudget: 1 << 20, // 1 MiB index residency
				})
				if err != nil {
					b.Fatal(err)
				}
				stats, err = sys.ExploreStatsOnly()
				if err != nil {
					b.Fatal(err)
				}
				if stats.Truncated {
					b.Fatalf("k=%d truncated at 2M orbit states", k)
				}
			}
			b.ReportMetric(float64(stats.States), "states")
			b.ReportMetric(float64(stats.Transitions), "transitions")
			b.ReportMetric(float64(stats.PeakMemBytes), "peak_mem_bytes")
			b.ReportMetric(float64(stats.SpilledBytes), "spilled_bytes")
		})
	}
}
