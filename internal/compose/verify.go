package compose

import (
	"fmt"
	"sort"
	"strings"
	"sync"
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

// exploreService explores the service side of a verification. Tests swap it
// to count the explorations a Verifier runs.
var exploreService = lts.ExploreSpec

// Verifier checks one protocol — a service and its entities — against the
// Section-5 relation, and keeps what every check of that protocol shares.
// Across a fault matrix or a capacity sweep only the medium changes; the
// service and the entities stay the same. So a Verifier draws its entity
// machines from two stores:
//
//   - its exact table: one lazily tabled fsm.Machine per place, retaining
//     every state, with the table of its rows as the product reads them
//     (see table), built on first use. The SOS rules run once per entity
//     state, whichever check first reaches it, and every monolithic check
//     reads this one table, symmetry-reduced or not;
//   - the fsm.Cache it was given, whose capped machines' minimized layers
//     the compositional path composes over.
//
// It also keeps the explored service graph, for the effective limits last
// used. Its memory grows with the entity states its checks reach, which
// each entity's reachable state space bounds — in practice those of the
// largest exploration run on it — plus one service graph, not with the
// number of checks. Each retained state keeps its canonical key, and a
// recursive entity's keys grow with its recursion depth, so one deep check
// pins those keys for as long as the Verifier lives.
// State keys pack local and message ids, whose order follows whichever
// check first reached a row, but numbering compares keys only for
// equality, so a check over a warm Verifier yields the same graph, state
// numbering and witness as over a fresh one; only the key bytes differ.
//
// A Verifier is safe for concurrent use. It explores the service
// specification in place (see Verify) and only reads the entities.
type Verifier struct {
	entities map[int]*lotos.Spec
	places   []int // ascending
	svc      *serviceGraph
	cache    *fsm.Cache
	sizes    sizeMemo // the products' last sizes, per configuration

	mu       sync.Mutex
	exact    *table // the exact machines' table
	exactErr error
}

// serviceGraph is a service specification and the graph of its last
// exploration. It is shared by the Verifiers of entity sets derived from
// one service (see OptimizeMessages).
type serviceGraph struct {
	mu   sync.Mutex
	spec *lotos.Spec
	lim  lts.Limits // the effective limits g was explored under
	g    *lts.Graph
}

// graph returns the service graph under lim, exploring the service unless
// the last exploration ran under the same effective limits. The lock also
// serializes the explorations, which resolve the specification in place.
func (s *serviceGraph) graph(lim lts.Limits) (*lts.Graph, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	eff := lts.Limits{MaxStates: effectiveMaxStates(lim.MaxStates), MaxObsDepth: lim.MaxObsDepth}
	if s.g != nil && s.lim == eff {
		return s.g, nil
	}
	g, err := exploreService(s.spec, lim)
	if err != nil {
		return nil, fmt.Errorf("compose: exploring service: %w", err)
	}
	s.g, s.lim = g, eff
	return g, nil
}

// NewVerifier returns the Verifier of a service and its entities, whose
// compositional checks recall capped machines from cache (nil = a private
// cache). It builds nothing until a check needs it.
//
// The service specification must be the analyzed clone actually derived
// from (core.Derivation.Service.Spec), so that both sides use the same
// normalized tree; the Verifier resolves it in place, so it must not be
// explored elsewhere concurrently.
func NewVerifier(service *lotos.Spec, entities map[int]*lotos.Spec, cache *fsm.Cache) *Verifier {
	if cache == nil {
		cache = fsm.NewCache(0)
	}
	return &Verifier{entities: entities, places: sortedPlaces(entities), svc: &serviceGraph{spec: service}, cache: cache}
}

// withEntities returns a Verifier of other entities for the same service,
// sharing the service graph and the machine cache, so unchanged places
// reuse their machines.
func (v *Verifier) withEntities(entities map[int]*lotos.Spec) *Verifier {
	return &Verifier{entities: entities, places: sortedPlaces(entities), svc: v.svc, cache: v.cache}
}

// sortedPlaces returns the places of an entity set in ascending order.
func sortedPlaces(entities map[int]*lotos.Spec) []int {
	places := make([]int, 0, len(entities))
	for p := range entities {
		places = append(places, p)
	}
	sort.Ints(places)
	return places
}

// system prepares a product system over the Verifier's exact table with
// the resolved reduction set red. The table is built on first use, with
// the instance symmetry of the entities, if any, detected before any state
// is translated: the table then interns every state's symmetry columns, and
// a system applies them when red holds RedSymmetry.
func (v *Verifier) system(cfg Config, red Reductions) (*System, error) {
	v.mu.Lock()
	if v.exact == nil && v.exactErr == nil {
		v.exact, v.exactErr = newTable(v.places, detectSymmetry(v.places, v.entities), exactMachines(v.entities))
	}
	t, err := v.exact, v.exactErr
	v.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return newSystem(v.places, t, cfg, red, &v.sizes), nil
}

// quotientSystem prepares a product system over the compiled machines'
// minimized layers: the product steps each machine's minimized rows,
// translated on first use like the exact rows of a monolithic system, so
// exploration never applies the SOS rules. A local id is a quotient class
// id, one per class, so identity keys stay exact, and serial and parallel
// exploration number states alike, as in the monolithic system.
func (v *Verifier) quotientSystem(machines map[int]*fsm.Machine, cfg Config) (*System, error) {
	t, err := newTable(v.places, nil, func(p int) (*fsm.Machine, *fsm.Minimized, error) {
		if machines[p] == nil {
			return nil, nil, fmt.Errorf("compose: no compiled machine for place %d", p)
		}
		min, err := machines[p].Minimized()
		return machines[p], min, err
	})
	if err != nil {
		return nil, err
	}
	// Quotient classes carry no syntax to render symmetry columns from, so
	// the symmetry reduction never applies to a compositional system.
	return newSystem(v.places, t, cfg, cfg.effectiveReductions()&^RedSymmetry, &v.sizes), nil
}

// Verify checks a derived protocol against its service specification: it
// is NewVerifier(service, entities, nil).Verify(opts), a one-shot Verifier.
//
// The service specification must be the analyzed clone actually derived
// from (core.Derivation.Service.Spec), so that both sides use the same
// normalized tree. Verify resolves it in place, but only reads the entities.
func Verify(service *lotos.Spec, entities map[int]*lotos.Spec, opts VerifyOptions) (*Report, error) {
	return NewVerifier(service, entities, nil).Verify(opts)
}

// Verify explores the service and the composed protocol system to the same
// observable depth, compares their weak trace sets, checks the composed
// system for deadlocks and — when both state spaces are finite within the
// limits — decides weak bisimulation.
//
// With opts.Compositional the product is built over weak-bisimulation
// quotients of the entity LTSs (see verifyCompositional); a non-conformant
// or incomplete compositional verdict falls back to the monolithic path,
// so counterexamples are always the monolithic (replayable) ones.
//
// The service graph comes first, explored unless the last check ran under
// the same limits: every attempt — monolithic, compositional, and the
// symmetry and compositional fallbacks — checks against that one graph,
// and its report carries it.
func (v *Verifier) Verify(opts VerifyOptions) (*Report, error) {
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
	sg, err := v.svc.graph(cfg.Limits)
	if err != nil {
		return nil, err
	}
	if opts.Compositional {
		return v.verifyCompositional(sg, opts, cfg)
	}
	return v.verifyMonolithic(sg, opts, cfg)
}

// verifyMonolithic explores the product of the entities' full local state
// spaces and judges it against the service graph sg. opts carries Verify's
// defaults; cfg is the product configuration Verify derived from it.
func (v *Verifier) verifyMonolithic(sg *lts.Graph, opts VerifyOptions, cfg Config) (*Report, error) {
	sys, err := v.system(cfg, cfg.effectiveReductions())
	if err != nil {
		return nil, err
	}
	cg, err := sys.Explore()
	if err != nil {
		return nil, fmt.Errorf("compose: exploring composed system: %w", err)
	}
	r, err := judge(sg, cg, sys, opts)
	if err != nil {
		return nil, err
	}
	if sys.sym != nil && !r.Ok() {
		// The symmetry quotient is weakly bisimilar to the concrete product,
		// so the verdict itself is trustworthy — but its graph stores one
		// state per permutation orbit: deadlock counts are orbit counts, and
		// a counterexample path would step through canonical representatives
		// rather than replayable concrete states. Re-verify with symmetry
		// stripped from the effective set (everything else unchanged) so the
		// failure report — witness included — is byte-identical to an
		// unreduced verification.
		c := cfg
		c.Reductions = sys.red.Without(RedSymmetry)
		full, err := v.verifyMonolithic(sg, opts, c)
		if err != nil {
			return nil, err
		}
		full.Reduction.Fallback = "non-conformant under symmetry; re-verified without it"
		return full, nil
	}
	return r, nil
}

// judge turns the service graph and an explored product system into a
// report: it is the one function that sets a Report's verdict fields. A
// failed verdict gets its shortest counterexample unless opts.NoWitness is
// set or the product is a quotient (by symmetry or of the entities), whose
// paths do not replay through the concrete runtime; the callers re-verify
// those failures on the concrete product.
func judge(sg, cg *lts.Graph, sys *System, opts VerifyOptions) (*Report, error) {
	ri := sys.ReductionInfo()
	r := &Report{
		ServiceGraph:  sg,
		ComposedGraph: cg,
		ObsDepth:      opts.ObsDepth,
		Faults:        opts.Faults,
		Reduction:     &ri,
	}
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
	if r.Ok() || opts.NoWitness || !sys.concrete() {
		return r, nil
	}
	w, err := buildWitness(sys, r, opts)
	if err != nil {
		return nil, fmt.Errorf("compose: extracting counterexample: %w", err)
	}
	r.Witness = w
	return r, nil
}

// verifyCompositional is the quotient-before-compose path: every entity's
// capped machine is recalled from the Verifier's cache and minimized
// (explored to closure and quotiented by weak bisimulation) unless an
// earlier call did, and the product is explored over the minimized
// layers. The cap is part of the entity's configuration, not of its
// medium, so the machines serve every fault model and channel capacity. A complete, conformant quotient-product verdict is final — the
// quotient is a congruence for the product's operators, so the monolithic
// product is weakly bisimilar to the quotient product, and a monolithic
// deadlock always projects to a quotient-product deadlock. Everything else
// (an entity over the cap, a truncated quotient product, a non-conformant
// verdict) re-runs the monolithic path against the same service graph and
// returns its report wholesale, counterexample included, with the fallback
// reason recorded in Report.Compositional.
func (v *Verifier) verifyCompositional(sg *lts.Graph, opts VerifyOptions, cfg Config) (*Report, error) {
	maxStates := effectiveMaxStates(opts.MaxStates)

	stats := &CompositionalStats{}
	machines := make(map[int]*fsm.Machine, len(v.places))
	for _, p := range v.places {
		// An entity counts as reused when an earlier call — a check, or a
		// compile report over the same cache — already built its minimized
		// layer; a simulation recalls machines without minimizing them.
		start := time.Now()
		m, _, ce := v.cache.Machine(p, v.entities[p], maxStates)
		reused := ce == nil && m.MinimizedBuilt()
		var lay *fsm.Minimized
		if ce == nil {
			var err error
			if lay, err = m.Minimized(); err != nil {
				ce = fsm.AtPlace(err.(*fsm.CompileError), p)
			}
		}
		stat := EntityQuotientStat{Place: p, Reused: reused}
		if !reused {
			stat.BuildNanos = time.Since(start).Nanoseconds()
		}
		switch {
		case ce == nil:
			stat.ExactStates, stat.ExactTransitions = lay.ExactStates, lay.ExactTransitions
			stat.QuotientStates, stat.QuotientTransitions = lay.NumStates(), lay.NumTransitions()
		case ce.Cap > 0:
			stat.ExactStates, stat.ExactTransitions = ce.States, ce.Transitions
		default:
			return nil, ce
		}
		stats.Entities = append(stats.Entities, stat)
		stats.BuildNanos += stat.BuildNanos
		if reused {
			stats.Reused++
		}
		if ce != nil {
			// The quotient of a truncated graph would merge frontier states
			// on their explored prefix only; composing over it is unsound.
			return v.fallbackMonolithic(sg, opts, cfg, stats,
				fmt.Sprintf("entity %d exceeds the exploration cap", p))
		}
		machines[p] = m
	}

	sys, err := v.quotientSystem(machines, cfg)
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
	// An incomplete exploration is acceptable only when the truncation is
	// depth-only: the monolithic product is explored to the same observable
	// depth, the full products are weakly bisimilar (quotient congruence),
	// and trace length is a weak-bisimulation invariant — so both paths cut
	// the same bounded trace sets and skip the bisimulation check alike. A
	// state-cap truncation instead means the quotient product was not
	// covered, and nothing relates the partial graphs; fall back.
	if cg.Truncated && cg.NumStates() >= maxStates {
		return v.fallbackMonolithic(sg, opts, cfg, stats, "quotient product exceeds the state cap")
	}
	r, err := judge(sg, cg, sys, opts)
	if err != nil {
		return nil, err
	}
	if !r.Ok() {
		// Sound only in the conformant direction: the weak quotient can
		// introduce a spurious deadlock (a pure-τ cycle collapses to a stuck
		// class), and the fallback's witness refers to monolithic transition
		// indices, which replay through the concrete runtime.
		return v.fallbackMonolithic(sg, opts, cfg, stats, "non-conformant; re-verified monolithically")
	}
	r.Compositional = stats
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

// fallbackMonolithic re-runs the monolithic path against the service graph
// sg and returns its report wholesale — verdict fields and counterexample
// byte-identical to a plain Verify — with the compositional attempt's stats
// and the fallback reason attached.
func (v *Verifier) fallbackMonolithic(sg *lts.Graph, opts VerifyOptions, cfg Config, stats *CompositionalStats, reason string) (*Report, error) {
	stats.Fallback = reason
	r, err := v.verifyMonolithic(sg, opts, cfg)
	if err != nil {
		return nil, err
	}
	r.Compositional = stats
	return r, nil
}

// VerifyMatrix runs Verify once per fault model and returns the reports in
// input order; each report's Faults names its model. An empty or nil model
// list verifies the reliable medium only. opts.Faults is overridden per
// model. Faults live in the medium, so every model checks against one
// service graph and steps the same entity machines.
func (v *Verifier) VerifyMatrix(models []FaultModel, opts VerifyOptions) ([]*Report, error) {
	if len(models) == 0 {
		models = []FaultModel{Reliable}
	}
	out := make([]*Report, 0, len(models))
	for _, fm := range models {
		o := opts
		o.Faults = fm
		r, err := v.Verify(o)
		if err != nil {
			return nil, fmt.Errorf("compose: fault model %s: %w", fm, err)
		}
		out = append(out, r)
	}
	return out, nil
}
