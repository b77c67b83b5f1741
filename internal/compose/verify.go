package compose

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/equiv"
	"repro/internal/fsm"
	"repro/internal/lotos"
	"repro/internal/lts"
)

// Report is the outcome of checking the Section-5 correctness relation
// S ≈ hide G in ((T_1 ||| ... ||| T_n) |[G]| Medium) for one service.
type Report struct {
	// ServiceGraph and ComposedGraph are the explored transition systems.
	ServiceGraph  *lts.Graph
	ComposedGraph *lts.Graph

	// Complete reports that both state spaces were explored to closure, in
	// which case WeakBisimilar is the exact verdict.
	Complete bool
	// WeakBisimilar is the weak-bisimulation verdict (valid when Complete).
	WeakBisimilar bool

	// ObsDepth is the observable depth used for the bounded trace check.
	ObsDepth int
	// TracesEqual reports equality of the weak trace sets up to ObsDepth.
	TracesEqual bool
	// OnlyService / OnlyComposed list example traces present on one side
	// only (diagnostics, empty when TracesEqual).
	OnlyService  []string
	OnlyComposed []string
	// ComposedSubset reports that every composed trace (up to ObsDepth) is
	// a service trace — the weaker "safety" conformance that holds e.g.
	// for the centralized baseline (which narrows choices) and fails for
	// protocols that invent behaviour.
	ComposedSubset bool
	// ServiceSubset reports the converse: every service trace is realized.
	ServiceSubset bool

	// ComposedDeadlocks lists deadlocked composed states (none expected for
	// a correct derivation of a deadlock-free service).
	ComposedDeadlocks int

	// Faults is the medium fault model the composition was explored under.
	Faults FaultModel

	// Witness is the shortest counterexample for a non-conformant or
	// deadlocking verdict: a concrete replayable transition path from the
	// composed initial state to the divergence point. Nil when Ok, and nil
	// for the rare failure mode with no path-shaped witness (bounded trace
	// sets equal but weak bisimulation refuted).
	Witness *Witness

	// Equiv reports the equivalence engine's work counters (τ-SCC count,
	// saturation size, refinement rounds, per-phase wall time). Set only
	// when the weak-bisimulation check ran, i.e. when Complete.
	Equiv *equiv.Stats

	// Compositional reports the quotient-before-compose pipeline when the
	// verification ran with VerifyOptions.Compositional: per-entity quotient
	// sizes and build times, product-over-quotients size, artifact reuse,
	// and — when the verdict came from the monolithic fallback — why. Nil
	// for plain monolithic verifications.
	Compositional *CompositionalStats

	// Reduction reports the state-space reductions the product exploration
	// ran with and the work they did (orbits collapsed, ample hits, runs
	// spilled). When a symmetry-reduced verification was non-conformant,
	// the verdict and witness come from an automatic re-verification with
	// symmetry off — so counterexamples replay against the concrete,
	// unreduced product — and Reduction.Fallback records that.
	Reduction *ReductionStats
}

// Ok reports overall success: trace equality at the checked depth, no
// composed deadlock, and — when complete exploration was possible — weak
// bisimilarity.
func (r *Report) Ok() bool {
	if !r.TracesEqual || r.ComposedDeadlocks > 0 {
		return false
	}
	if r.Complete && !r.WeakBisimilar {
		return false
	}
	return true
}

// Summary renders a one-paragraph human-readable verdict.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "service: %d states / %d transitions (truncated=%v)\n",
		r.ServiceGraph.NumStates(), r.ServiceGraph.NumTransitions(), r.ServiceGraph.Truncated)
	fmt.Fprintf(&b, "composed: %d states / %d transitions (truncated=%v)\n",
		r.ComposedGraph.NumStates(), r.ComposedGraph.NumTransitions(), r.ComposedGraph.Truncated)
	if r.Complete {
		fmt.Fprintf(&b, "weak bisimulation: %v\n", r.WeakBisimilar)
	} else {
		fmt.Fprintf(&b, "weak bisimulation: skipped (state space truncated)\n")
	}
	fmt.Fprintf(&b, "weak traces equal up to %d observable steps: %v\n", r.ObsDepth, r.TracesEqual)
	for _, t := range r.OnlyService {
		fmt.Fprintf(&b, "  only in service:  %q\n", t)
	}
	for _, t := range r.OnlyComposed {
		fmt.Fprintf(&b, "  only in composed: %q\n", t)
	}
	fmt.Fprintf(&b, "composed deadlocks: %d\n", r.ComposedDeadlocks)
	if r.Faults.Any() {
		fmt.Fprintf(&b, "fault model: %s\n", r.Faults)
	}
	if ri := r.Reduction; ri != nil && (ri.SymmetryColumns > 0 || ri.SpillRuns > 0 || ri.Fallback != "") {
		fmt.Fprintf(&b, "reductions: %s (columns=%d orbits=%d ample=%d spillRuns=%d)\n",
			ri.Enabled, ri.SymmetryColumns, ri.OrbitsCollapsed, ri.AmpleHits, ri.SpillRuns)
		if ri.Fallback != "" {
			fmt.Fprintf(&b, "  fallback: %s\n", ri.Fallback)
		}
	}
	fmt.Fprintf(&b, "verdict: %v\n", map[bool]string{true: "OK", false: "FAIL"}[r.Ok()])
	if r.Witness != nil {
		b.WriteString(r.Witness.Summary())
	}
	return b.String()
}

// VerifyOptions tunes Verify.
type VerifyOptions struct {
	// ChannelCap is the medium channel capacity (default 1).
	ChannelCap int
	// ObsDepth is the observable depth of the bounded trace comparison
	// (default 8).
	ObsDepth int
	// MaxStates caps both explorations (default lts.DefaultMaxStates).
	MaxStates int
	// Parallel derives the composed product with several workers (see
	// Config.Parallel); the service side stays serial (it is tiny by
	// comparison).
	Parallel bool
	// Workers sizes the derivation worker pool (0 = GOMAXPROCS).
	Workers int
	// Faults selects the medium fault model to compose in (zero value =
	// the paper's reliable FIFO medium).
	Faults FaultModel
	// TraceDiffLimit caps how many example traces TraceDiff collects per
	// side for a failed trace comparison (default DefaultTraceDiffLimit).
	TraceDiffLimit int
	// NoWitness skips counterexample extraction for failed verdicts (the
	// graphs alone are wanted, e.g. in tight sweeps).
	NoWitness bool
	// Compositional selects the quotient-before-compose path: each entity's
	// LTS is explored and minimized with the weak-bisimulation quotient
	// before the product is built, so exploration runs over quotient state
	// spaces. A conformant compositional verdict is sound (the quotient is
	// a congruence for the product's operators); a non-conformant one, a
	// truncated entity, or a truncated quotient product falls back to the
	// full monolithic Verify, whose report — counterexample included — is
	// returned wholesale with the fallback reason recorded in
	// Report.Compositional.
	Compositional bool
	// EntityProvider, when set with Compositional, supplies the per-entity
	// compiled machines whose minimized layers the product composes over
	// (the injection point for content-addressed caches). Nil compiles each
	// place with fsm.Compile at the verification's effective state cap.
	EntityProvider EntityProvider
	// Reductions selects the product exploration's state-space reductions
	// (zero value = the default set, POR only). Every reduction is verdict-
	// preserving: a symmetry-reduced non-conformant verdict is automatically
	// re-verified with symmetry off so the witness and deadlock counts refer
	// to the concrete product (see Report.Reduction.Fallback).
	Reductions Reductions
	// SpillBudget bounds the in-memory visited index (bytes) when the
	// reduction set includes RedSpill; past it, sorted runs spill to disk.
	// 0 selects lts.DefaultSpillBudget.
	SpillBudget int64
	// SpillDir is the directory for spill runs ("" = os.TempDir()).
	SpillDir string
}

// DefaultObsDepth is the default bounded-comparison depth.
const DefaultObsDepth = 8

// DefaultTraceDiffLimit is the default per-side cap on diagnostic example
// traces collected when the trace sets differ.
const DefaultTraceDiffLimit = 5

// Verify checks a derived protocol against its service specification:
// it explores the service and the composed protocol system to the same
// observable depth, compares their weak trace sets, checks the composed
// system for deadlocks and — when both state spaces are finite within the
// limits — decides weak bisimulation.
//
// With opts.Compositional the product is built over weak-bisimulation
// quotients of the entity LTSs (see verifyCompositional); a non-conformant
// or incomplete compositional verdict falls back to the monolithic path,
// so counterexamples are always the monolithic (replayable) ones.
//
// The service specification must be the analyzed clone actually derived
// from (core.Derivation.Service.Spec), so that both sides use the same
// normalized tree.
func Verify(service *lotos.Spec, entities map[int]*lotos.Spec, opts VerifyOptions) (*Report, error) {
	if opts.ObsDepth <= 0 {
		opts.ObsDepth = DefaultObsDepth
	}
	if opts.TraceDiffLimit <= 0 {
		opts.TraceDiffLimit = DefaultTraceDiffLimit
	}
	cfg := Config{
		ChannelCap:  opts.ChannelCap,
		Limits:      lts.Limits{MaxStates: opts.MaxStates, MaxObsDepth: opts.ObsDepth},
		Parallel:    opts.Parallel,
		Workers:     opts.Workers,
		Faults:      opts.Faults,
		Reductions:  opts.Reductions,
		SpillBudget: opts.SpillBudget,
		SpillDir:    opts.SpillDir,
	}
	if opts.Compositional {
		return verifyCompositional(service, entities, opts, cfg)
	}
	return verifyMonolithic(service, entities, opts, cfg)
}

// verifyMonolithic explores the product of the entities' full local state
// spaces. opts carries Verify's defaults; cfg is the product configuration
// Verify derived from it.
func verifyMonolithic(service *lotos.Spec, entities map[int]*lotos.Spec, opts VerifyOptions, cfg Config) (*Report, error) {
	sg, err := lts.ExploreSpec(service, cfg.Limits)
	if err != nil {
		return nil, fmt.Errorf("compose: exploring service: %w", err)
	}
	sys, err := New(entities, cfg)
	if err != nil {
		return nil, err
	}
	cg, err := sys.Explore()
	if err != nil {
		return nil, fmt.Errorf("compose: exploring composed system: %w", err)
	}

	ri := sys.ReductionInfo()
	r := &Report{
		ServiceGraph:  sg,
		ComposedGraph: cg,
		ObsDepth:      opts.ObsDepth,
		Faults:        opts.Faults,
		Reduction:     &ri,
	}
	verdict(r, opts)
	if sys.sym != nil && !r.Ok() {
		// The symmetry quotient is weakly bisimilar to the concrete product,
		// so the verdict itself is trustworthy — but its graph stores one
		// state per permutation orbit: deadlock counts are orbit counts, and
		// a counterexample path would step through canonical representatives
		// rather than replayable concrete states. Re-verify with symmetry
		// stripped from the effective set (everything else unchanged) so the
		// failure report — witness included — is byte-identical to an
		// unreduced verification. Mirrors fallbackMonolithic in spirit; the
		// repeated service exploration is cheap next to the product.
		c := cfg
		c.Reductions = sys.red.Without(RedSymmetry)
		full, err := verifyMonolithic(service, entities, opts, c)
		if err != nil {
			return nil, err
		}
		full.Reduction.Fallback = "non-conformant under symmetry; re-verified without it"
		return full, nil
	}
	if !r.Ok() && !opts.NoWitness {
		w, err := buildWitness(sys, r, opts)
		if err != nil {
			return nil, fmt.Errorf("compose: extracting counterexample: %w", err)
		}
		r.Witness = w
	}
	return r, nil
}

// verdict fills the comparison fields of a report whose graphs are set.
func verdict(r *Report, opts VerifyOptions) {
	sg, cg := r.ServiceGraph, r.ComposedGraph
	r.OnlyService, r.OnlyComposed = equiv.TraceDiff(sg, cg, opts.ObsDepth, opts.TraceDiffLimit)
	r.ServiceSubset = len(r.OnlyService) == 0
	r.ComposedSubset = len(r.OnlyComposed) == 0
	r.TracesEqual = r.ServiceSubset && r.ComposedSubset
	r.ComposedDeadlocks = len(cg.Deadlocks())
	r.Complete = !sg.Truncated && !cg.Truncated
	if r.Complete {
		var st equiv.Stats
		r.WeakBisimilar, st = equiv.WeakBisimilarStats(sg, cg)
		r.Equiv = &st
	}
}

// verifyCompositional is the quotient-before-compose path: every entity is
// compiled (explored to closure and minimized with the weak-bisimulation
// quotient), and the product is explored over the machines' minimized
// layers. A complete, conformant quotient-product verdict is final — the
// quotient is a congruence for the product's operators, so the monolithic
// product is weakly bisimilar to the quotient product, and a monolithic
// deadlock always projects to a quotient-product deadlock. Everything else
// (an entity over the cap, a truncated quotient product, a non-conformant
// verdict) re-runs the monolithic path and returns its report wholesale,
// counterexample included, with the fallback reason recorded in
// Report.Compositional. The caller's trees are never mutated by the
// compositional attempt (the service is explored on a clone; fsm.Compile
// explores clones), so the fallback sees them pristine.
func verifyCompositional(service *lotos.Spec, entities map[int]*lotos.Spec, opts VerifyOptions, cfg Config) (*Report, error) {
	provider := opts.EntityProvider
	if provider == nil {
		provider = compileEntity
	}
	maxStates := effectiveMaxStates(opts.MaxStates)

	stats := &CompositionalStats{}
	places := make([]int, 0, len(entities))
	for p := range entities {
		places = append(places, p)
	}
	sort.Ints(places)
	machines := make(map[int]*fsm.Machine, len(places))
	for _, p := range places {
		m, nanos, reused, err := provider(p, entities[p], maxStates)
		stat := EntityQuotientStat{Place: p, BuildNanos: nanos, Reused: reused}
		var ce *fsm.CompileError
		switch {
		case err == nil:
			lay, _ := m.Minimized()
			stat.ExactStates, stat.ExactTransitions = lay.ExactStates, lay.ExactTransitions
			stat.QuotientStates, stat.QuotientTransitions = lay.NumStates(), lay.NumTransitions()
		case errors.As(err, &ce) && ce.Cap > 0:
			stat.ExactStates, stat.ExactTransitions = ce.States, ce.Transitions
		default:
			return nil, err
		}
		stats.Entities = append(stats.Entities, stat)
		stats.BuildNanos += nanos
		if reused {
			stats.Reused++
		}
		if err != nil {
			// The quotient of a truncated graph would merge frontier states
			// on their explored prefix only; composing over it is unsound.
			return fallbackMonolithic(service, entities, opts, cfg, stats,
				fmt.Sprintf("entity %d exceeds the exploration cap", p))
		}
		machines[p] = m
	}

	// Explore the service on a clone: exploration resolves and numbers the
	// tree in place, and the monolithic fallback needs the original.
	sg, err := lts.ExploreSpec(lotos.CloneSpec(service), cfg.Limits)
	if err != nil {
		return nil, fmt.Errorf("compose: exploring service: %w", err)
	}
	sys, err := NewCompositional(entities, machines, cfg)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	cg, err := sys.Explore()
	if err != nil {
		return nil, fmt.Errorf("compose: exploring quotient product: %w", err)
	}
	stats.ProductNanos = time.Since(start).Nanoseconds()
	stats.ProductStates = cg.NumStates()
	stats.ProductTransitions = cg.NumTransitions()

	ri := sys.ReductionInfo()
	r := &Report{
		ServiceGraph:  sg,
		ComposedGraph: cg,
		ObsDepth:      opts.ObsDepth,
		Faults:        opts.Faults,
		Compositional: stats,
		Reduction:     &ri,
	}
	verdict(r, opts)
	// An incomplete exploration is acceptable only when the truncation is
	// depth-only: the monolithic product is explored to the same observable
	// depth, the full products are weakly bisimilar (quotient congruence),
	// and trace length is a weak-bisimulation invariant — so both paths cut
	// the same bounded trace sets and skip the bisimulation check alike. A
	// state-cap truncation instead means the quotient product was not
	// covered, and nothing relates the partial graphs; fall back.
	if cg.Truncated && cg.NumStates() >= maxStates {
		return fallbackMonolithic(service, entities, opts, cfg, stats, "quotient product exceeds the state cap")
	}
	if !r.Ok() {
		// Sound only in the conformant direction: the weak quotient can
		// introduce a spurious deadlock (a pure-τ cycle collapses to a stuck
		// class), and the fallback's witness refers to monolithic transition
		// indices, which replay through the concrete runtime.
		return fallbackMonolithic(service, entities, opts, cfg, stats, "non-conformant; re-verified monolithically")
	}
	return r, nil
}

// effectiveMaxStates resolves the exploration state cap an explorer applies
// for a MaxStates option (0 = the default cap).
func effectiveMaxStates(maxStates int) int {
	if maxStates <= 0 {
		return lts.DefaultMaxStates
	}
	return maxStates
}

// fallbackMonolithic re-runs the monolithic path and returns its report
// wholesale — verdict fields and counterexample byte-identical to a plain
// Verify — with the compositional attempt's stats and the fallback reason
// attached.
func fallbackMonolithic(service *lotos.Spec, entities map[int]*lotos.Spec, opts VerifyOptions, cfg Config, stats *CompositionalStats, reason string) (*Report, error) {
	stats.Fallback = reason
	r, err := verifyMonolithic(service, entities, opts, cfg)
	if err != nil {
		return nil, err
	}
	r.Compositional = stats
	return r, nil
}

// MatrixCell is one entry of a fault matrix: the report of one verification
// under one fault model.
type MatrixCell struct {
	Faults FaultModel
	Report *Report
}

// VerifyMatrix runs Verify once per fault model and returns the cells in
// input order. An empty or nil model list verifies the reliable medium only.
// opts.Faults is overridden per cell. Under opts.Compositional with no
// EntityProvider the entities are compiled once and the machines shared
// across every cell — faults and channel capacity live in the medium, so
// the entity artifacts are identical for all fault models.
func VerifyMatrix(service *lotos.Spec, entities map[int]*lotos.Spec, models []FaultModel, opts VerifyOptions) ([]MatrixCell, error) {
	if len(models) == 0 {
		models = []FaultModel{Reliable}
	}
	if opts.Compositional && opts.EntityProvider == nil {
		type compiled struct {
			m   *fsm.Machine
			err error
		}
		memo := map[int]compiled{}
		opts.EntityProvider = func(place int, sp *lotos.Spec, maxStates int) (*fsm.Machine, int64, bool, error) {
			if c, ok := memo[place]; ok {
				return c.m, 0, true, c.err
			}
			m, nanos, _, err := compileEntity(place, sp, maxStates)
			memo[place] = compiled{m, err}
			return m, nanos, false, err
		}
	}
	out := make([]MatrixCell, 0, len(models))
	for _, fm := range models {
		o := opts
		o.Faults = fm
		r, err := Verify(service, entities, o)
		if err != nil {
			return nil, fmt.Errorf("compose: fault model %s: %w", fm, err)
		}
		out = append(out, MatrixCell{Faults: fm, Report: r})
	}
	return out, nil
}
