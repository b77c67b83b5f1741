package compose

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/fsm"
	"repro/internal/lotos"
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

// compileAll compiles the machine of every entity, minimized layer
// included.
func compileAll(tb testing.TB, entities map[int]*lotos.Spec) map[int]*fsm.Machine {
	tb.Helper()
	machines := make(map[int]*fsm.Machine, len(entities))
	for p, sp := range entities {
		m, err := fsm.New(p, sp, fsm.Config{MaxStates: 1 << 16})
		if err == nil {
			_, err = m.Minimized()
		}
		if err != nil {
			tb.Fatal(err)
		}
		machines[p] = m
	}
	return machines
}

// BenchmarkProductDerive measures product exploration per explored state
// on three paths: the relay5 census with POR, symmetry and a 1 MiB spilling
// index, a plain relay4 exploration (POR only) that keeps its graph, and the
// same relay4 exploration over the entities' minimized rows (compositional;
// the machines are compiled once, outside the timing). Besides the time it
// reports the allocations and bytes per state.
func BenchmarkProductDerive(b *testing.B) {
	cases := []struct {
		name   string
		k      int
		cfg    Config
		census bool
		comp   bool
	}{
		{"relay5-census", 5, Config{Reductions: RedAll | redExplicit, SpillBudget: 1 << 20}, true, false},
		{"relay4-explore", 4, Config{}, false, false},
		{"relay4-compositional", 4, Config{}, false, true},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			d := mustDerive(b, relaySrc(c.k))
			cfg := c.cfg
			cfg.Limits = lts.Limits{MaxStates: 2000000}
			cfg.SpillDir = b.TempDir()
			var machines map[int]*fsm.Machine
			if c.comp {
				machines = compileAll(b, d.Entities)
			}
			var states int64
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for range b.N {
				var sys *System
				var err error
				if c.comp {
					sys, err = NewVerifier(nil, d.Entities, nil).quotientSystem(machines, cfg)
				} else {
					sys, err = New(cloneEntityMap(d.Entities), cfg)
				}
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
