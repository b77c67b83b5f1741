package compose

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/lts"
)

// relaySrc is the k-instance two-place relay: k identical interleaved
// columns, each sending one message from place 1 to place 2. Its product
// grows exponentially in k, its symmetry quotient polynomially.
func relaySrc(k int) string {
	cols := make([]string, k)
	for i := range cols {
		cols[i] = "Ring"
	}
	return "SPEC " + strings.Join(cols, " ||| ") + " WHERE PROC Ring = t1; t2; exit END ENDSPEC"
}

// BenchmarkProductDerive measures product exploration per explored state
// on two paths: the relay5 census with POR, symmetry and a 1 MiB spilling
// index, and a plain relay4 exploration (POR only) that keeps its graph.
// Besides the time it reports the allocations and bytes per state.
func BenchmarkProductDerive(b *testing.B) {
	cases := []struct {
		name   string
		k      int
		cfg    Config
		census bool
	}{
		{"relay5-census", 5, Config{Reductions: RedAll | redExplicit, SpillBudget: 1 << 20}, true},
		{"relay4-explore", 4, Config{}, false},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			d := mustDerive(b, relaySrc(c.k))
			cfg := c.cfg
			cfg.Limits = lts.Limits{MaxStates: 2000000}
			cfg.SpillDir = b.TempDir()
			var states int64
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for range b.N {
				sys, err := New(cloneEntityMap(d.Entities), cfg)
				if err != nil {
					b.Fatal(err)
				}
				if c.census {
					st, err := sys.ExploreStatsOnly()
					if err != nil {
						b.Fatal(err)
					}
					states += st.States
					continue
				}
				g, err := sys.Explore()
				if err != nil {
					b.Fatal(err)
				}
				states += int64(g.NumStates())
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(states), "allocs/state")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(states), "B/state")
		})
	}
}
