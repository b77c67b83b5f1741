package protoderive

// The benchmark harness regenerates, for every experiment row of
// EXPERIMENTS.md, the corresponding measurement: derivation cost and
// message counts across parameterized workloads, attribute evaluation,
// state-space exploration, equivalence checking, the centralized-baseline
// comparison (E10), the partial-order-reduction ablation, and the
// concurrent-runtime throughput.
//
// Run with:
//
//	go test -bench=. -benchmem .

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/attr"
	"repro/internal/compose"
	"repro/internal/core"
	"repro/internal/equiv"
	"repro/internal/fsm"
	"repro/internal/lotos"
	"repro/internal/lts"
	"repro/internal/mutate"
	"repro/internal/sim"
)

const benchExample3 = `
SPEC S [> interrupt3; exit WHERE
  PROC S = (read1; push2; S >> pop2; write3; exit)
        [] (eof1; make3; exit)
  END
ENDSPEC`

// --- workload generators ----------------------------------------------------

// chainSpec builds a sequential service of k events cycling over n places:
// a1; a2; ...; an; a1; ...; exit.
func chainSpec(n, k int) string {
	var b strings.Builder
	b.WriteString("SPEC ")
	for i := 0; i < k; i++ {
		fmt.Fprintf(&b, "a%d; ", i%n+1)
	}
	b.WriteString("exit ENDSPEC")
	return b.String()
}

// choiceSpec builds a service with k alternatives decided at place 1, each
// visiting a distinct subset of the n places and ending at place n.
func choiceSpec(n, k int) string {
	var alts []string
	for i := 0; i < k; i++ {
		mid := i%(n-1) + 1
		alts = append(alts, fmt.Sprintf("(c%d1; m%d%d; z%d; exit)", i, i, mid, n))
	}
	return "SPEC " + strings.Join(alts, " [] ") + " ENDSPEC"
}

// parallelSpec builds n independent per-place sequences of length k joined
// by "|||", wrapped between a start and an end event.
func parallelSpec(n, k int) string {
	var parts []string
	for p := 1; p <= n; p++ {
		var seq []string
		for i := 0; i < k; i++ {
			seq = append(seq, fmt.Sprintf("w%d%d; ", i, p))
		}
		parts = append(parts, "("+strings.Join(seq, "")+"exit)")
	}
	return fmt.Sprintf("SPEC a1; exit >> (%s) >> z1; exit ENDSPEC", strings.Join(parts, " ||| "))
}

// recursiveSpec builds a tail-recursive service over n places with a local
// exit choice at place 1.
func recursiveSpec(n int) string {
	var body strings.Builder
	for p := 1; p <= n; p++ {
		fmt.Fprintf(&body, "t%d; ", p)
	}
	return fmt.Sprintf("SPEC A WHERE PROC A = %sA [] q1; t%d; exit END ENDSPEC", body.String(), n)
}

func mustSpec(b *testing.B, src string) *lotos.Spec {
	b.Helper()
	sp, err := lotos.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	return sp
}

// --- E1: attribute evaluation (Figure 4) -------------------------------------

func BenchmarkE1_AttributeTree(b *testing.B) {
	src := benchExample3
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := lotos.MustParse(src)
		if _, err := attr.Analyze(sp); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E2/E3/E4/E5: the derivation algorithm -----------------------------------

func BenchmarkE2_DeriveExample3(b *testing.B) {
	sp := mustSpec(b, benchExample3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Derive(sp, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDerive_PlacesSweep(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16} {
		src := chainSpec(n, 4*n)
		sp := mustSpec(b, src)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var msgs int
			for i := 0; i < b.N; i++ {
				d, err := core.Derive(sp, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				msgs = d.SendCount()
			}
			b.ReportMetric(float64(msgs), "messages")
		})
	}
}

func BenchmarkDerive_SizeSweep(b *testing.B) {
	for _, k := range []int{16, 64, 256, 1024} {
		src := chainSpec(3, k)
		sp := mustSpec(b, src)
		b.Run(fmt.Sprintf("events=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Derive(sp, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkParse(b *testing.B) {
	src := chainSpec(3, 256)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := lotos.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E8: message complexity ----------------------------------------------------

func BenchmarkE8_Complexity(b *testing.B) {
	d, err := core.Derive(mustSpec(b, benchExample3), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		c := core.MessageComplexity(d.Service)
		if c.Total() != 14 {
			b.Fatalf("total %d", c.Total())
		}
	}
}

func BenchmarkE8_ComplexitySweep(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		d, err := core.Derive(mustSpec(b, choiceSpec(n, n)), core.Options{SkipRestrictions: true})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var total int
			for i := 0; i < b.N; i++ {
				total = core.MessageComplexity(d.Service).Total()
			}
			b.ReportMetric(float64(total), "messages")
		})
	}
}

// --- E9: verification -----------------------------------------------------------

func BenchmarkE9_VerifySequence(b *testing.B) {
	sp := mustSpec(b, chainSpec(3, 9))
	d, err := core.Derive(sp, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		rep, err := compose.Verify(d.Service.Spec, d.Entities, compose.VerifyOptions{ObsDepth: 12})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Ok() {
			b.Fatal("verification failed")
		}
	}
}

func BenchmarkE9_VerifyFileCopyNoDisable(b *testing.B) {
	src := `
SPEC S WHERE
  PROC S = (read1; push2; S >> pop2; write3; exit)
        [] (eof1; make3; exit)
  END
ENDSPEC`
	d, err := core.Derive(mustSpec(b, src), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		rep, err := compose.Verify(d.Service.Spec, d.Entities, compose.VerifyOptions{ObsDepth: 5, MaxStates: 120000})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.TracesEqual {
			b.Fatal("trace mismatch")
		}
	}
}

func BenchmarkExploreService(b *testing.B) {
	sp := mustSpec(b, recursiveSpec(3))
	lotos.Number(sp)
	for i := 0; i < b.N; i++ {
		g, err := lts.ExploreSpec(lotos.CloneSpec(sp), lts.Limits{MaxObsDepth: 10, MaxStates: 50000})
		if err != nil {
			b.Fatal(err)
		}
		if g.NumStates() == 0 {
			b.Fatal("no states")
		}
	}
}

// --- equivalence engine: corpus sweep (engine vs retained reference) ---------

// equivBenchLimits bounds the graphs the equivalence benchmarks compare.
// The bound is chosen so the retained quadratic reference checker still
// terminates in seconds on the largest corpus entry while the graphs are
// big enough (thousands of states on the composed side) for the asymptotic
// gap to show.
var equivBenchLimits = lts.Limits{MaxObsDepth: 4, MaxStates: 4000}

type equivBenchCase struct {
	name   string
	sg, cg *lts.Graph
}

// equivBenchCases explores every derivable corpus spec to the benchmark
// bound and pairs the service graph with the composed protocol graph.
func equivBenchCases(b *testing.B) []equivBenchCase {
	b.Helper()
	var cases []equivBenchCase
	for _, file := range corpusFiles(b) {
		src, err := os.ReadFile(file)
		if err != nil {
			b.Fatal(err)
		}
		d, err := core.Derive(mustSpec(b, string(src)), core.Options{})
		if err != nil {
			continue // restriction-violating corpus entries have no protocol
		}
		sg, err := lts.ExploreSpec(d.Service.Spec, equivBenchLimits)
		if err != nil {
			b.Fatal(err)
		}
		sys, err := compose.New(d.Entities, compose.Config{Limits: equivBenchLimits})
		if err != nil {
			b.Fatal(err)
		}
		cg, err := sys.Explore()
		if err != nil {
			b.Fatal(err)
		}
		cases = append(cases, equivBenchCase{
			name: strings.TrimSuffix(filepath.Base(file), ".spec"),
			sg:   sg,
			cg:   cg,
		})
	}
	return cases
}

// BenchmarkWeakBisim compares the integer/CSR engine against the retained
// map/string reference checker on every corpus service-vs-composed pair
// (the workload compose.Verify runs). The two must agree verdict for
// verdict; the interesting numbers are time/op and allocs/op.
func BenchmarkWeakBisim(b *testing.B) {
	for _, c := range equivBenchCases(b) {
		want := equiv.RefWeakBisimilar(c.sg, c.cg)
		b.Run(c.name+"/engine", func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(c.sg.NumStates()+c.cg.NumStates()), "states")
			for i := 0; i < b.N; i++ {
				if equiv.WeakBisimilar(c.sg, c.cg) != want {
					b.Fatal("engine disagrees with reference")
				}
			}
		})
		b.Run(c.name+"/reference", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if equiv.RefWeakBisimilar(c.sg, c.cg) != want {
					b.Fatal("reference verdict unstable")
				}
			}
		})
	}
}

// BenchmarkQuotient minimizes each corpus composed graph with both
// implementations.
func BenchmarkQuotient(b *testing.B) {
	for _, c := range equivBenchCases(b) {
		b.Run(c.name+"/engine", func(b *testing.B) {
			b.ReportAllocs()
			var states int
			for i := 0; i < b.N; i++ {
				states = equiv.QuotientWeak(c.cg).NumStates()
			}
			b.ReportMetric(float64(states), "classes")
		})
		b.Run(c.name+"/reference", func(b *testing.B) {
			b.ReportAllocs()
			var states int
			for i := 0; i < b.N; i++ {
				states = equiv.RefQuotientWeak(c.cg).NumStates()
			}
			b.ReportMetric(float64(states), "classes")
		})
	}
}

// --- E10: centralized vs distributed messages -----------------------------------

func BenchmarkE10_CentralizedVsDistributed(b *testing.B) {
	for _, k := range []int{4, 16, 64} {
		src := chainSpec(3, k)
		sp := mustSpec(b, src)
		b.Run(fmt.Sprintf("events=%d", k), func(b *testing.B) {
			var dist, cen int
			for i := 0; i < b.N; i++ {
				d, err := core.Derive(sp, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				c, err := core.DeriveCentralized(sp, 1)
				if err != nil {
					b.Fatal(err)
				}
				dist, cen = d.SendCount(), c.MessageCount()
			}
			b.ReportMetric(float64(dist), "distributed-msgs")
			b.ReportMetric(float64(cen), "centralized-msgs")
		})
	}
}

// --- partial-order-reduction ablation --------------------------------------------

func BenchmarkReductionAblation(b *testing.B) {
	src := "SPEC a1; exit >> (b2; exit ||| c3; exit) >> d1; exit ENDSPEC"
	d, err := core.Derive(mustSpec(b, src), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		red  compose.Reductions
	}{{"reduced", 0}, {"full", compose.RedNone}} {
		b.Run(c.name, func(b *testing.B) {
			var states int
			for i := 0; i < b.N; i++ {
				sys, err := compose.New(d.Entities, compose.Config{Reductions: c.red})
				if err != nil {
					b.Fatal(err)
				}
				g, err := sys.Explore()
				if err != nil {
					b.Fatal(err)
				}
				states = g.NumStates()
			}
			b.ReportMetric(float64(states), "states")
		})
	}
}

// --- exploration ablation: serial/parallel derivation ------------------------------

// exploreBenchConfigs are the exploration configurations compared by the
// ablation benchmarks: one derivation worker, and one per CPU. Both run the
// same BFS core and yield the same graph.
var exploreBenchConfigs = []struct {
	name     string
	parallel bool
}{
	{"serial-binary", false},
	{"parallel-binary", true},
}

func benchExplore(b *testing.B, entities map[int]*lotos.Spec, cfg compose.Config) {
	b.Helper()
	var states int
	for i := 0; i < b.N; i++ {
		sys, err := compose.New(entities, cfg)
		if err != nil {
			b.Fatal(err)
		}
		g, err := sys.Explore()
		if err != nil {
			b.Fatal(err)
		}
		states = g.NumStates()
	}
	b.ReportMetric(float64(states), "states")
}

// BenchmarkExploreCorpusAblation explores every specs/ corpus entry under
// the exploration configurations. The multiinstance spec is the largest (about
// 117k states at this bound) and dominates the comparison.
func BenchmarkExploreCorpusAblation(b *testing.B) {
	files, err := filepath.Glob(filepath.Join("specs", "*.spec"))
	if err != nil || len(files) == 0 {
		b.Fatalf("no corpus specs: %v", err)
	}
	lim := lts.Limits{MaxObsDepth: 5, MaxStates: 200000}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			b.Fatal(err)
		}
		d, err := core.Derive(mustSpec(b, string(src)), core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		base := strings.TrimSuffix(filepath.Base(file), ".spec")
		for _, cfg := range exploreBenchConfigs {
			b.Run(base+"/"+cfg.name, func(b *testing.B) {
				benchExplore(b, d.Entities, compose.Config{Limits: lim, Parallel: cfg.parallel})
			})
		}
	}
}

// BenchmarkExplorePlacesSweep scales the number of places of an
// interleaved workload and compares serial against parallel exploration:
// more places mean wider BFS levels, which is where the frontier-at-a-time
// parallelism pays off.
func BenchmarkExplorePlacesSweep(b *testing.B) {
	lim := lts.Limits{MaxObsDepth: 6, MaxStates: 20000}
	for _, n := range []int{2, 4, 8, 16} {
		d, err := core.Derive(mustSpec(b, parallelSpec(n, 2)), core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, cfg := range exploreBenchConfigs {
			b.Run(fmt.Sprintf("n=%d/%s", n, cfg.name), func(b *testing.B) {
				benchExplore(b, d.Entities, compose.Config{Limits: lim, Parallel: cfg.parallel})
			})
		}
	}
}

// --- runtime throughput ------------------------------------------------------------

func BenchmarkSimulationThroughput(b *testing.B) {
	d, err := core.Derive(mustSpec(b, recursiveSpec(3)), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	const events = 60
	b.ReportAllocs()
	totalEvents := 0
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(d.Entities, sim.Config{Seed: int64(i + 1), MaxEvents: events})
		if err != nil {
			b.Fatal(err)
		}
		totalEvents += len(res.Trace)
	}
	b.ReportMetric(float64(totalEvents)/b.Elapsed().Seconds(), "events/s")
}

// --- machines: fresh per run vs one warm shared fleet ------------------------

// simulateBenchCases are the machine workloads: every corpus spec whose
// entities' minimized layers close under the default cap (BenchmarkCompile
// measures that minimization), plus a long synthetic chain whose runs are
// dominated by per-step work rather than setup.
func simulateBenchCases(b *testing.B) map[string]map[int]*lotos.Spec {
	b.Helper()
	cases := map[string]map[int]*lotos.Spec{
		"chain60": deriveBenchEntities(b, chainSpec(3, 60)),
	}
	for _, file := range corpusFiles(b) {
		src, err := os.ReadFile(file)
		if err != nil {
			b.Fatal(err)
		}
		d, err := core.Derive(mustSpec(b, string(src)), core.Options{})
		if err != nil {
			continue
		}
		closed := true
		for _, m := range fsm.CompileEntities(d.Entities, fsm.Config{}).Machines {
			_, err := m.Minimized()
			closed = closed && err == nil
		}
		if closed {
			cases[strings.TrimSuffix(filepath.Base(file), ".spec")] = d.Entities
		}
	}
	return cases
}

func deriveBenchEntities(b *testing.B, src string) map[int]*lotos.Spec {
	b.Helper()
	d, err := core.Derive(mustSpec(b, src), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return d.Entities
}

// BenchmarkSimulate runs each workload through deterministic lockstep
// simulation twice with identical seeds — the runs execute the same
// transitions: "fresh" builds the entities' machines for every run, so each
// visited row is derived from the syntax tree once per run; "shared" runs
// over one fleet warmed outside the timer (Protocol.Simulate caches its
// fleet the same way), so rows are read, not derived. time/op, steps/s and
// allocs/op isolate what sharing the rows saves.
func BenchmarkSimulate(b *testing.B) {
	for name, entities := range simulateBenchCases(b) {
		shared := fsm.CompileEntities(entities, fsm.Config{})
		for i := 0; i < 100; i++ {
			if _, err := sim.Run(entities, sim.Config{Seed: int64(i + 1), MaxEvents: 80, Fleet: shared}); err != nil {
				b.Fatal(err)
			}
		}
		for _, fleet := range []*fsm.Fleet{nil, shared} {
			mode := "fresh"
			if fleet != nil {
				mode = "shared"
			}
			b.Run(name+"/"+mode, func(b *testing.B) {
				b.ReportAllocs()
				steps := 0
				for i := 0; i < b.N; i++ {
					res, err := sim.Run(entities, sim.Config{Seed: int64(i + 1), MaxEvents: 80, Fleet: fleet})
					if err != nil {
						b.Fatal(err)
					}
					// Steps = observable service primitives + medium messages
					// delivered: every transition the run actually executed
					// except internal moves.
					steps += len(res.Trace) + res.Medium.Delivered
				}
				b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "steps/s")
			})
		}
	}
}

// BenchmarkCompile measures minimization — explore, quotient, table layout
// — per corpus entity fleet: the one-off cost compositional verification
// and Protocol.Compile pay, and simulation no longer does.
func BenchmarkCompile(b *testing.B) {
	for name, entities := range simulateBenchCases(b) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var states int
			for i := 0; i < b.N; i++ {
				states = 0
				for _, m := range fsm.CompileEntities(entities, fsm.Config{}).Machines {
					lay, err := m.Minimized()
					if err != nil {
						b.Fatal(err)
					}
					states += lay.NumStates()
				}
			}
			b.ReportMetric(float64(states), "min-states")
		})
	}
}

func BenchmarkFacadeWorkflow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		svc, err := ParseService("SPEC a1; b2; exit [] a1; c2; d3; b2; exit ENDSPEC")
		if err != nil {
			b.Fatal(err)
		}
		proto, err := svc.Derive()
		if err != nil {
			b.Fatal(err)
		}
		if proto.MessageCount() == 0 {
			b.Fatal("no messages")
		}
	}
}

// --- E13/E14 benches: optimizer and interrupt-mode trade-off ------------------

func BenchmarkE13_Optimizer(b *testing.B) {
	sp := mustSpec(b, `SPEC A WHERE PROC A = a1; b2; A [] c1; exit END ENDSPEC`)
	d, err := core.Derive(sp, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var removed int
	for i := 0; i < b.N; i++ {
		res, err := compose.OptimizeMessages(d.Service.Spec, d.Entities,
			compose.VerifyOptions{ObsDepth: 6, MaxStates: 60000})
		if err != nil {
			b.Fatal(err)
		}
		removed = res.Before - res.After
	}
	b.ReportMetric(float64(removed), "removed-msgs")
}

func BenchmarkE14_InterruptModes(b *testing.B) {
	src := "SPEC D [> d2; c1; exit WHERE PROC D = a1; b2; D END ENDSPEC"
	for _, mode := range []core.InterruptMode{core.InterruptBroadcast, core.InterruptHandshake} {
		name := "broadcast"
		if mode == core.InterruptHandshake {
			name = "handshake"
		}
		b.Run(name, func(b *testing.B) {
			sp := mustSpec(b, src)
			var msgs int
			for i := 0; i < b.N; i++ {
				d, err := core.Derive(sp, core.Options{Interrupt: mode})
				if err != nil {
					b.Fatal(err)
				}
				msgs = d.SendCount()
			}
			b.ReportMetric(float64(msgs), "messages")
		})
	}
}

func BenchmarkE15_ARQOverhead(b *testing.B) {
	d, err := core.Derive(mustSpec(b, "SPEC a1; b2; c3; exit >> d2; e1; exit ENDSPEC"), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, reliable := range []bool{false, true} {
		name := "bare"
		if reliable {
			name = "arq"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(d.Entities, sim.Config{Seed: int64(i + 1), Reliable: reliable})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Completed {
					b.Fatal("incomplete")
				}
			}
		})
	}
}

func BenchmarkE16_MutationSuite(b *testing.B) {
	d, err := core.Derive(mustSpec(b, "SPEC a1; b2; c3; exit ENDSPEC"), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var killed, total int
	for i := 0; i < b.N; i++ {
		killed, total = 0, 0
		for _, m := range mutate.Generate(d.Entities) {
			total++
			rep, err := compose.Verify(d.Service.Spec, m.Entities,
				compose.VerifyOptions{ObsDepth: 6, MaxStates: 100000})
			if err != nil || !rep.Ok() {
				killed++
			}
		}
	}
	b.ReportMetric(float64(killed), "killed")
	b.ReportMetric(float64(total), "mutants")
}
