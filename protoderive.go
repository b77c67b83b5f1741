// Package protoderive derives protocol entity specifications from formal
// communication-service specifications, implementing the algorithm of
// "Deriving Protocol Specifications from Service Specifications" (Bochmann
// & Gotzhein, SIGCOMM '86) in its extended Basic-LOTOS form (Kant,
// Higashino & Bochmann): all operators — action prefix ";", choice "[]",
// the parallel operators "|||", "|[G]|", "||", enabling ">>", disabling
// "[>" — and unrestricted process invocation and recursion.
//
// The workflow is three calls:
//
//	svc, err := protoderive.ParseService(src)   // parse + validate (R1-R3)
//	proto, err := svc.Derive()                  // T_p for every place
//	report, err := proto.Verify(nil)            // S ≈ hide G in (T_1 ||| ... |[G]| Medium)
//
// and Simulate executes the derived entities concurrently over a reliable
// FIFO medium, checking every observed trace against the service.
//
// The package is a facade over the implementation packages under internal/:
// lotos (specification language), attr (SP/EP/AP attribute evaluation), apf
// (action-prefix-form normalization), core (the derivation algorithm and
// baselines), lts/equiv/compose (semantics and verification) and medium/sim
// (the concurrent runtime).
package protoderive

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/attr"
	"repro/internal/compose"
	"repro/internal/core"
	"repro/internal/equiv"
	"repro/internal/fsm"
	"repro/internal/lotos"
	"repro/internal/lts"
	"repro/internal/sim"
	"repro/internal/wire/conformance"
)

// SpecError is the structured error the facade returns for every failure
// caused by the input specification: lexical and syntax errors, name
// resolution failures, service-event well-formedness, and violations of the
// paper's restrictions R1-R3. Long-running callers (the pgd daemon, editor
// integrations) match it with errors.As to separate bad-input failures from
// internal ones and to report source positions.
type SpecError struct {
	// Line and Col locate the error in the source text (1-based). Both are
	// zero when the failure has no single position (e.g. a restriction
	// violation, which is located by node instead).
	Line, Col int
	// Rule names the violated restriction ("R1", "R2", "R3", "APF") for
	// restriction errors; empty otherwise.
	Rule string
	// Msg is the bare description, without any position prefix.
	Msg string

	err error // underlying cause, for Unwrap
}

// Error implements the error interface. The rendering matches the
// underlying packages' text, so wrapping is invisible to string matching.
func (e *SpecError) Error() string {
	if e.err != nil {
		return e.err.Error()
	}
	if e.Line > 0 {
		return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg)
	}
	return e.Msg
}

// Unwrap returns the underlying error.
func (e *SpecError) Unwrap() error { return e.err }

// specErr wraps an input-caused error into a *SpecError, lifting the source
// position of syntax errors and the rule of restriction violations into the
// structured fields. A nil input stays nil.
func specErr(err error) error {
	if err == nil {
		return err
	}
	se := &SpecError{Msg: err.Error(), err: err}
	var syn *lotos.SyntaxError
	if errors.As(err, &syn) {
		se.Line, se.Col, se.Msg = syn.Line, syn.Col, syn.Msg
	}
	var re *attr.RestrictionError
	if errors.As(err, &re) {
		se.Rule = re.Rule
	}
	return se
}

// guard converts a panic escaping a facade entry point into an error: the
// facade's contract is that malformed input and internal failures surface
// as errors, never as panics, so resident callers (pgd) stay up. The
// recovered value is wrapped, not rethrown; the panic site is a bug and the
// message says so.
func guard(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("protoderive: internal error (please report): %v", r)
	}
}

// Service is a parsed and validated communication-service specification.
type Service struct {
	spec *lotos.Spec
	info *attr.Info
}

// ParseService parses a service specification and validates it: syntax,
// name resolution, service-event well-formedness, and the paper's
// restrictions R1 (locally decided choices), R2 (equal ending places) and
// R3 (disabling starts within the normal part's ending places).
func ParseService(src string) (svc *Service, err error) {
	defer guard(&err)
	sp, err := lotos.Parse(src)
	if err != nil {
		return nil, specErr(err)
	}
	// Validate on a clone: attribute analysis numbers the tree in place.
	info, err := attr.Validate(lotos.CloneSpec(sp))
	if err != nil {
		return nil, specErr(err)
	}
	return &Service{spec: sp, info: info}, nil
}

// MustParseService is ParseService panicking on error, for examples and
// tests with literal specifications.
func MustParseService(src string) *Service {
	s, err := ParseService(src)
	if err != nil {
		panic(err)
	}
	return s
}

// Places returns the service access points (the attribute ALL), sorted.
func (s *Service) Places() []int { return s.info.All.Sorted() }

// Primitives returns the distinct service primitives, rendered, sorted by
// place then name.
func (s *Service) Primitives() []string {
	evs := lotos.ServiceEvents(s.spec)
	out := make([]string, len(evs))
	for i, ev := range evs {
		out[i] = ev.String()
	}
	return out
}

// String renders the (pretty-printed) specification.
func (s *Service) String() string { return s.spec.String() }

// AttributeTable renders the node numbering and the synthesized attributes
// SP/EP/AP of every node — the textual form of the paper's Figure 4.
func (s *Service) AttributeTable() string { return s.info.Table() }

// Traces enumerates the service's weak traces up to the given number of
// observable events (successful termination appears as "delta").
func (s *Service) Traces(depth int) (out []string, err error) {
	defer guard(&err)
	g, err := lts.ExploreSpec(lotos.CloneSpec(s.spec), lts.Limits{MaxObsDepth: depth})
	if err != nil {
		return nil, err
	}
	return lts.WeakTraces(g, depth), nil
}

// ExploreOptions tunes Explore. The zero value (or nil) selects defaults:
// observable depth 8 and the default state cap.
type ExploreOptions struct {
	// ObsDepth bounds exploration by observable depth (default 8).
	ObsDepth int
	// MaxStates caps the number of explored states.
	MaxStates int
	// Traces includes the weak trace set up to ObsDepth in the report.
	Traces bool
}

// ExploreReport summarizes a bounded exploration of a service's labelled
// transition system.
type ExploreReport struct {
	// States and Transitions are the explored sizes.
	States      int `json:"states"`
	Transitions int `json:"transitions"`
	// Deadlocks counts states with no outgoing transition that were not
	// reached by successful termination.
	Deadlocks int `json:"deadlocks"`
	// Truncated reports that a limit stopped exploration before closure.
	Truncated bool `json:"truncated"`
	// ObsDepth is the observable bound the exploration ran with.
	ObsDepth int `json:"obsDepth"`
	// Traces is the weak trace set up to ObsDepth (only when requested).
	Traces []string `json:"traces,omitempty"`
}

// Explore explores the service's labelled transition system up to the given
// bounds and reports its size, deadlocks and (optionally) weak traces. It
// is the facade over internal/lts for callers — like the pgd daemon — that
// need exploration of a spec without deriving a protocol from it.
func (s *Service) Explore(opts *ExploreOptions) (rep *ExploreReport, err error) {
	defer guard(&err)
	return exploreSpec(s.spec, opts)
}

// ExploreSource parses and explores any specification the grammar accepts —
// including ones that are not valid *service* specifications (hide, message
// interactions, restriction violations), which ParseService rejects. Only
// syntax and name resolution are checked.
func ExploreSource(src string, opts *ExploreOptions) (rep *ExploreReport, err error) {
	defer guard(&err)
	sp, err := lotos.Parse(src)
	if err != nil {
		return nil, specErr(err)
	}
	return exploreSpec(sp, opts)
}

// NormalizeSource parses any grammatical specification and returns its
// pretty-printed canonical form — the normalization the pgd daemon's
// content-addressed cache keys on.
func NormalizeSource(src string) (out string, err error) {
	defer guard(&err)
	sp, err := lotos.Parse(src)
	if err != nil {
		return "", specErr(err)
	}
	return sp.String(), nil
}

func exploreSpec(sp *lotos.Spec, opts *ExploreOptions) (*ExploreReport, error) {
	var o ExploreOptions
	if opts != nil {
		o = *opts
	}
	if o.ObsDepth <= 0 {
		o.ObsDepth = compose.DefaultObsDepth
	}
	g, err := lts.ExploreSpec(lotos.CloneSpec(sp), lts.Limits{
		MaxObsDepth: o.ObsDepth,
		MaxStates:   o.MaxStates,
	})
	if err != nil {
		return nil, specErr(err)
	}
	rep := &ExploreReport{
		States:      g.NumStates(),
		Transitions: g.NumTransitions(),
		Deadlocks:   len(g.Deadlocks()),
		Truncated:   g.Truncated,
		ObsDepth:    o.ObsDepth,
	}
	if o.Traces {
		rep.Traces = lts.WeakTraces(g, o.ObsDepth)
	}
	return rep, nil
}

// DeriveOptions tunes Derive.
type DeriveOptions struct {
	// KeepRedundant keeps the raw Table-3 output (no empty-elimination).
	KeepRedundant bool
	// Dialect1986 restricts the input to the original SIGCOMM'86 operator
	// subset (";", "[]", "|||", no processes).
	Dialect1986 bool
	// InterruptHandshake derives the Section-3.3 "alternative
	// implementation" of disabling: a request/acknowledge handshake makes
	// the interrupt trace-faithful to the LOTOS semantics (for
	// non-terminating normal parts) at 2(n-1) messages per interrupt.
	InterruptHandshake bool
}

// Protocol is a derived set of protocol entity specifications.
type Protocol struct {
	d *core.Derivation

	// arts is the content-addressed cache of capped entity machines that
	// every fleet (Simulate, Compile, Replay) and compositional check draws
	// from: the one attached by UseArtifacts, else a private one. Machines
	// fill their rows as sessions visit them and build their minimized
	// layers once, so repeated calls on one Protocol share that work.
	arts     *ArtifactCache
	artsOnce sync.Once
	// keys holds each entity's content address in the cache (fsm.EntityKeys).
	// The entities never change after derivation, so it is computed once:
	// a warm fleet lookup renders and hashes no entity text.
	keys     map[int]string
	keysOnce sync.Once

	// The verification memo every Verify, VerifyMatrix and Optimize call
	// shares: the exact entity machines the product steps and the explored
	// service graph (see compose.Verifier), built on first use.
	verifierOnce sync.Once
	v            *compose.Verifier
}

// machines returns the protocol's machine cache, creating a private one
// unless UseArtifacts attached one.
func (p *Protocol) machines() *ArtifactCache {
	p.artsOnce.Do(func() {
		if p.arts == nil {
			p.arts = NewArtifactCache(0)
		}
	})
	return p.arts
}

// verifier returns the protocol's verification memo, over its own clone of
// the service tree and the protocol's machine cache.
func (p *Protocol) verifier() *compose.Verifier {
	p.verifierOnce.Do(func() {
		p.v = compose.NewVerifier(lotos.CloneSpec(p.d.Service.Spec), p.d.Entities, p.machines())
	})
	return p.v
}

// compileCap resolves a per-entity compile cap option (0 = default) to the
// effective cap machine-cache entries are keyed by.
func compileCap(maxStates int) int {
	if maxStates <= 0 {
		return fsm.DefaultMaxStates
	}
	return maxStates
}

// fleet recalls the protocol's machines for the given cap option from its
// machine cache. Machines clone their entity, so the shared trees are not
// mutated.
func (p *Protocol) fleet(maxStates int) *fsm.Fleet {
	p.keysOnce.Do(func() { p.keys = entityKeys(p.d.Entities) })
	return p.machines().Fleet(p.d.Entities, p.keys, maxStates)
}

// entityKeys computes the content addresses of a protocol's entities; only
// tests swap it, to count the computations.
var entityKeys = fsm.EntityKeys

// Derive runs the derivation algorithm with default options.
func (s *Service) Derive() (*Protocol, error) {
	return s.DeriveWithOptions(DeriveOptions{})
}

// DeriveWithOptions runs the derivation algorithm.
func (s *Service) DeriveWithOptions(opts DeriveOptions) (proto *Protocol, err error) {
	defer guard(&err)
	mode := core.InterruptBroadcast
	if opts.InterruptHandshake {
		mode = core.InterruptHandshake
	}
	d, err := core.Derive(s.spec, core.Options{
		KeepRedundant: opts.KeepRedundant,
		Dialect1986:   opts.Dialect1986,
		Interrupt:     mode,
	})
	if err != nil {
		return nil, specErr(err)
	}
	return &Protocol{d: d}, nil
}

// Places returns the protocol's places, sorted.
func (p *Protocol) Places() []int { return append([]int(nil), p.d.Places...) }

// EntityText renders the derived entity specification for one place.
func (p *Protocol) EntityText(place int) string {
	e := p.d.Entity(place)
	if e == nil {
		return ""
	}
	return e.String()
}

// Render renders all entities, one per place, in place order.
func (p *Protocol) Render() string { return p.d.Render() }

// MessageCount returns the total number of send interactions across the
// derived entities (the static message complexity of Section 4.3).
func (p *Protocol) MessageCount() int { return p.d.SendCount() }

// Complexity is the per-operator message-complexity report of Section 4.3.
type Complexity = core.Complexity

// Complexity computes the per-operator message-complexity breakdown.
func (p *Protocol) Complexity() Complexity {
	return core.MessageComplexityMode(p.d.Service, p.d.Opts.Interrupt)
}

// ComplexityTable renders the Section 4.3 report.
func (p *Protocol) ComplexityTable() string { return p.Complexity().String() }

// FaultModel selects medium faults for Verify to compose into the product
// exploration: message loss, duplication, and adjacent reordering. The zero
// value is the paper's reliable FIFO medium. It marshals as its canonical
// name ("reliable", "loss", "loss+dup", …).
type FaultModel = compose.FaultModel

// CanonicalReductions parses a reduction-set name (see
// VerifyOptions.Reductions) and returns its canonical form, so spelling
// variants ("sym" vs "symmetry", reordered tokens) share a daemon cache key
// while distinct sets never collide.
func CanonicalReductions(s string) (string, error) {
	r, err := compose.ParseReductions(s)
	if err != nil {
		return "", specErr(err)
	}
	return r.String(), nil
}

// ParseFaultModels parses a comma-separated list of fault-model specs, e.g.
// "loss,dup,loss+reorder": each "reliable" (or "none", "") or a "+"-joined
// combination of "loss", "dup", "reorder". Duplicates are collapsed.
func ParseFaultModels(s string) ([]FaultModel, error) {
	fs, err := compose.ParseFaultModels(s)
	return fs, specErr(err)
}

// VerifyOptions tunes Verify. The zero value (or nil) selects defaults:
// channel capacity 1, observable depth 8, default state cap, serial
// exploration, reliable medium.
type VerifyOptions struct {
	ChannelCap int
	ObsDepth   int
	MaxStates  int
	// Parallel derives the composed product state space with several
	// workers (one per CPU by default). The explored graph and the verdict
	// are identical to a one-worker run, but large compositions finish
	// faster on multi-core hosts.
	Parallel bool
	// Workers overrides the derivation worker-pool size (0 = GOMAXPROCS).
	Workers int
	// Faults composes medium faults into the product (zero = reliable).
	Faults FaultModel
	// TraceDiffLimit caps the diagnostic example traces collected per side
	// on a failed trace comparison (default 5).
	TraceDiffLimit int
	// Compositional verifies quotient-before-compose: each entity LTS is
	// minimized with the congruence-preserving weak-bisimulation quotient
	// before the product is built. Verdicts match the monolithic path (a
	// non-conformant or state-capped compositional attempt re-verifies
	// monolithically, counterexample included); the report carries the
	// per-phase pipeline numbers in VerifyReport.Compositional. The entity
	// machines come from the protocol's machine cache — the attached
	// artifact cache (UseArtifacts), else the protocol's own — which its
	// Simulate, Compile and Replay calls share, so a machine minimized by
	// one call is reused by the next at the same effective cap.
	Compositional bool
	// Reductions names the product exploration's reduction set: "" or
	// "default" (partial-order reduction only), "none", "all", or "+"-joined
	// names from "por", "symmetry", "spill". Every reduction is verdict-
	// preserving — a symmetry-reduced failure is automatically re-verified
	// unreduced so counterexamples replay against the concrete product.
	Reductions string
	// SpillBudget bounds the in-memory visited index (bytes) when the
	// reduction set includes "spill" (0 = the exploration default).
	SpillBudget int64
}

// VerifyReport is the verification verdict for the Section-5 correctness
// relation, flattened from the engine's report: the one verdict record
// that is serialized. The pgd daemon's verify responses embed it, and each
// cell of their fault matrix is one, so its JSON keys are the wire's.
type VerifyReport struct {
	// Ok is the overall verdict.
	Ok bool `json:"ok"`
	// Complete reports full state-space exploration; then WeakBisimilar is
	// the exact ≈ verdict. Otherwise the bounded trace check applies.
	Complete      bool `json:"complete"`
	WeakBisimilar bool `json:"weakBisimilar"`
	// TracesEqual reports weak-trace equality up to ObsDepth.
	TracesEqual bool `json:"tracesEqual"`
	ObsDepth    int  `json:"obsDepth"`
	// Deadlocks counts deadlocked composed states.
	Deadlocks int `json:"deadlocks"`
	// ServiceStates / ComposedStates are exploration sizes.
	ServiceStates  int `json:"serviceStates"`
	ComposedStates int `json:"composedStates"`
	// Summary is a human-readable report.
	Summary string `json:"summary"`
	// Faults is the canonical name of the fault model the verification ran
	// under ("reliable" for the paper's medium).
	Faults string `json:"faults"`
	// Witness is the shortest counterexample for a failed verdict: a
	// concrete transition path from the composed initial state to the
	// divergence, replayable with Protocol.Replay. Nil when Ok (and for
	// the rare bisimulation-only failure with no path-shaped witness).
	Witness *Witness `json:"witness,omitempty"`
	// Equiv reports the equivalence engine's work for the bisimulation
	// check. Nil when the check was skipped (truncated state space — the
	// verdict then rests on the bounded weak-trace comparison).
	Equiv *EquivStats `json:"equiv,omitempty"`
	// Compositional reports the quotient-before-compose pipeline (entity
	// quotient sizes, per-phase times, artifact reuse, fallback reason).
	// Nil unless the verification ran with VerifyOptions.Compositional.
	Compositional *CompositionalReport `json:"compositional,omitempty"`
	// Reduction reports the state-space reductions the product exploration
	// applied and the work they did (symmetry orbits collapsed, ample-set
	// hits, visited-index runs spilled to disk).
	Reduction *ReductionReport `json:"reduction,omitempty"`
}

// ReductionReport describes the state-space reductions a product
// exploration applied: which were in force, how much each one cut, and
// whether a symmetry-reduced failure fell back to an unreduced
// re-verification for its concrete counterexample.
type ReductionReport = compose.ReductionStats

// WitnessStep is one transition of a counterexample: an entity move (its
// place and the index of the fired local transition) or a medium fault (the
// channel and queue position struck).
type WitnessStep = compose.WitnessStep

// Witness is a shortest counterexample for a failed verification. Kind is
// "deadlock", "extra-trace" or "missing-trace"; Steps is the concrete path;
// Trace its observable projection. For a missing-trace witness, Missing is
// the service trace the composition cannot realize and MatchedPrefix the
// number of its labels the path realizes before diverging. A witness
// decoded from JSON replays like the original.
type Witness = compose.Witness

// EquivStats describes one equivalence check by the engine in
// internal/equiv: the combined graph size, the τ-SCC condensation, the
// saturated weak relation, and the hashed partition refinement.
type EquivStats = equiv.Stats

// composeOptions converts facade options (nil = defaults) into the
// verifier's, parsing the reduction-set name.
func composeOptions(opts *VerifyOptions) (compose.VerifyOptions, error) {
	var o VerifyOptions
	if opts != nil {
		o = *opts
	}
	red, err := compose.ParseReductions(o.Reductions)
	if err != nil {
		return compose.VerifyOptions{}, specErr(err)
	}
	co := compose.VerifyOptions{
		ChannelCap:     o.ChannelCap,
		ObsDepth:       o.ObsDepth,
		MaxStates:      o.MaxStates,
		Parallel:       o.Parallel,
		Workers:        o.Workers,
		Faults:         o.Faults,
		TraceDiffLimit: o.TraceDiffLimit,
		Compositional:  o.Compositional,
		Reductions:     red,
		SpillBudget:    o.SpillBudget,
	}
	return co, nil
}

// Verify checks the derived protocol against its service: the composed
// system "hide G in ((T_1 ||| ... ||| T_n) |[G]| Medium)" must be weakly
// bisimilar to the service (exactly, for finite state spaces; up to a
// bounded observable depth otherwise).
//
// Every Verify, VerifyMatrix and Optimize call on one Protocol shares its
// verification memo: each entity machine derives a row once, whichever
// call first reaches it, and the service is explored again only when the
// limits change. A call on a warm Protocol reaches the verdict, graphs and
// witness a fresh one reaches; apart from wall-clock timings, its report
// differs only in the compositional reuse counts, which count machines
// minimized by an earlier call on the protocol's machine cache as reused
// with 0 build time. Verify is safe for concurrent use on one
// Protocol: the memo is, and the entity trees are only read (each entity
// machine resolves a private clone).
func (p *Protocol) Verify(opts *VerifyOptions) (out *VerifyReport, err error) {
	defer guard(&err)
	co, err := composeOptions(opts)
	if err != nil {
		return nil, err
	}
	rep, err := p.verifier().Verify(co)
	if err != nil {
		return nil, err
	}
	return verifyReport(rep), nil
}

// verifyReport flattens a compose report into the facade type.
func verifyReport(rep *compose.Report) *VerifyReport {
	return &VerifyReport{
		Ok:             rep.Ok(),
		Complete:       rep.Complete,
		WeakBisimilar:  rep.WeakBisimilar,
		TracesEqual:    rep.TracesEqual,
		ObsDepth:       rep.ObsDepth,
		Deadlocks:      rep.ComposedDeadlocks,
		ServiceStates:  rep.ServiceGraph.NumStates(),
		ComposedStates: rep.ComposedGraph.NumStates(),
		Summary:        rep.Summary(),
		Faults:         rep.Faults.String(),
		Witness:        rep.Witness,
		Equiv:          rep.Equiv,
		Compositional:  rep.Compositional,
		Reduction:      rep.Reduction,
	}
}

// VerifyMatrix verifies the protocol once per fault model — a fault matrix
// row per model, in input order, each report's Faults naming its model —
// reusing the given options for everything but the fault model. An empty
// model list verifies the reliable medium only. Like Verify, it is safe for
// concurrent use.
func (p *Protocol) VerifyMatrix(models []FaultModel, opts *VerifyOptions) (reps []*VerifyReport, err error) {
	defer guard(&err)
	co, err := composeOptions(opts)
	if err != nil {
		return nil, err
	}
	mx, err := p.verifier().VerifyMatrix(models, co)
	if err != nil {
		return nil, err
	}
	for _, r := range mx {
		reps = append(reps, verifyReport(r))
	}
	return reps, nil
}

// ReplayResult reports the re-execution of a counterexample through the
// concrete runtime (entity machines + medium).
type ReplayResult = sim.ReplayResult

// Replay re-executes a counterexample produced by Verify or VerifyMatrix on
// this protocol — in this process or decoded from JSON — step-for-step
// through the entity machines and medium, confirming the abstract
// counterexample is a real execution.
func (p *Protocol) Replay(w *Witness) (out *ReplayResult, err error) {
	defer guard(&err)
	return sim.ReplayFleet(p.fleet(0), w)
}

// CompileOptions tunes Compile. The zero value (or nil) selects defaults.
type CompileOptions struct {
	// MaxStates caps each entity's explored state space (default
	// fsm.DefaultMaxStates = 4096). Entities over the cap are reported as
	// fallbacks, not errors.
	MaxStates int
}

// EntityCompile reports the minimized layer of one protocol entity.
type EntityCompile struct {
	// Place is the entity's protocol place.
	Place int `json:"place"`
	// Compiled reports that the entity's state space closed under the cap;
	// when false, Error holds the reason (the entity still runs: past the
	// cap its machine derives rows without keeping them).
	Compiled bool `json:"compiled"`
	// States / Transitions are the exact (explored) sizes.
	States      int `json:"states,omitempty"`
	Transitions int `json:"transitions,omitempty"`
	// MinStates / MinTransitions are the weak-bisimulation-minimized sizes
	// (the number of weakly inequivalent entity behaviours).
	MinStates      int `json:"minStates,omitempty"`
	MinTransitions int `json:"minTransitions,omitempty"`
	// Error describes a failed compilation (state cap overflow).
	Error string `json:"error,omitempty"`
}

// CompileReport summarizes the minimized layers of every entity of the
// protocol.
type CompileReport struct {
	// Entities holds one row per place, in place order.
	Entities []EntityCompile `json:"entities"`
	// Compiled / Fallback count entities whose minimized layer did and did
	// not close under the cap.
	Compiled int `json:"compiled"`
	Fallback int `json:"fallback"`
	// MaxStates is the per-entity state cap the compilation ran with.
	MaxStates int `json:"maxStates"`
}

// Compile builds the minimized layer of every derived entity's machine
// (internal/fsm) and reports per-entity state/transition counts, both exact
// and weak-bisimulation-minimized. Entities whose state space exceeds the
// cap (unbounded recursion) are reported as fallbacks. The machines come
// from the Protocol's machine cache, so a Simulate or a compositional
// Verify at the same effective cap runs the same machines. Safe for
// concurrent use.
func (p *Protocol) Compile(opts *CompileOptions) (rep *CompileReport, err error) {
	defer guard(&err)
	var o CompileOptions
	if opts != nil {
		o = *opts
	}
	rep = &CompileReport{MaxStates: compileCap(o.MaxStates)}
	f := p.fleet(rep.MaxStates)
	places := make([]int, 0, len(p.d.Entities))
	for place := range p.d.Entities {
		places = append(places, place)
	}
	sort.Ints(places)
	for _, place := range places {
		ce := f.Errors[place]
		if m := f.Machines[place]; m != nil {
			lay, err := m.Minimized()
			if err == nil {
				rep.Entities = append(rep.Entities, EntityCompile{
					Place:          place,
					Compiled:       true,
					States:         lay.ExactStates,
					Transitions:    lay.ExactTransitions,
					MinStates:      lay.NumStates(),
					MinTransitions: lay.NumTransitions(),
				})
				rep.Compiled++
				continue
			}
			ce = fsm.AtPlace(err.(*fsm.CompileError), place)
		}
		rep.Entities = append(rep.Entities, EntityCompile{Place: place, States: ce.States, Error: ce.Error()})
		rep.Fallback++
	}
	return rep, nil
}

// SimOptions tunes Simulate.
type SimOptions struct {
	// Seed drives all randomness (default 1).
	Seed int64
	// MaxEvents bounds non-terminating runs.
	MaxEvents int
	// Timeout bounds the run's wall-clock time (default 5s).
	Timeout time.Duration
	// Script, when non-empty, drives the users along this exact global
	// sequence of service primitives instead of random choices.
	Script []string
	// MaxDelay enables random message delivery delays of up to this many
	// scheduler sweeps (drawn from the run's seeded medium).
	MaxDelay int
	// LossRate injects message loss (the derived protocols assume a
	// reliable medium; loss demonstrates the Section-6 limitation).
	LossRate float64
	// ReliableLayer interposes a stop-and-wait ARQ transport between the
	// entities and the lossy wire — the Section-6 error-recovery
	// transformation. With it, LossRate describes the wire and the
	// protocol still completes.
	ReliableLayer bool
	// CompileMaxStates caps the states each entity machine retains (default
	// fsm.DefaultMaxStates); past it rows are derived without being kept.
	CompileMaxStates int
}

// SimResult reports one execution of the derived protocol.
type SimResult struct {
	// Trace is the observed global sequence of service primitives.
	Trace []string
	// Completed, Deadlocked, TimedOut, Stopped classify the run's end.
	Completed, Deadlocked, TimedOut, Stopped bool
	// MessagesSent / MessagesDropped are medium counters.
	MessagesSent, MessagesDropped int
	// TraceValid reports that the observed trace is a weak trace of the
	// service (checked against the service state space).
	TraceValid bool
}

// Simulate runs the derived entities over a FIFO medium and checks the
// observed trace against the service specification. The run is one seeded
// lockstep execution — the entities step in turn, message delays, losses
// and ARQ retransmissions count scheduler sweeps — so the same options give
// the same result on every call. Like Verify, it operates on clones and is
// safe for concurrent use on one Protocol.
func (p *Protocol) Simulate(opts *SimOptions) (out *SimResult, err error) {
	defer guard(&err)
	var o SimOptions
	if opts != nil {
		o = *opts
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	cfg := sim.Config{
		Seed:      o.Seed,
		MaxEvents: o.MaxEvents,
		Timeout:   o.Timeout,
		Fleet:     p.fleet(o.CompileMaxStates),
	}
	cfg.Medium.MaxDelay = o.MaxDelay
	cfg.Medium.LossRate = o.LossRate
	cfg.Reliable = o.ReliableLayer
	if len(o.Script) > 0 {
		cfg.Harness = sim.NewScripted(o.Script)
	}
	res, err := sim.Run(p.d.Entities, cfg)
	if err != nil {
		return nil, err
	}
	out = &SimResult{
		Trace:           res.TraceStrings(),
		Completed:       res.Completed,
		Deadlocked:      res.Deadlocked,
		TimedOut:        res.TimedOut,
		Stopped:         res.Stopped,
		MessagesSent:    res.Medium.Sent,
		MessagesDropped: res.Medium.Dropped,
	}
	out.TraceValid = sim.CheckTrace(lotos.CloneSpec(p.d.Service.Spec), res, 0) == nil
	return out, nil
}

// OptimizeReport describes a message-optimization pass.
type OptimizeReport struct {
	// Before / After count send interactions in the entity texts.
	Before, After int
	// Removed lists the eliminated message identifications.
	Removed []int
	// Protocol is the optimized protocol (the receiver is unchanged).
	Protocol *Protocol
}

// Optimize removes non-essential synchronization messages (the elimination
// the paper defers to [Khen 89]), re-verifying the Section-5 relation after
// every removal; only removals that keep the protocol correct survive. The
// given options apply to each verification (nil selects defaults), and
// every candidate is checked against the service graph of the protocol's
// verification memo. Like Verify, it is safe for concurrent use.
func (p *Protocol) Optimize(opts *VerifyOptions) (out *OptimizeReport, err error) {
	defer guard(&err)
	co, err := composeOptions(opts)
	if err != nil {
		return nil, err
	}
	res, err := p.verifier().OptimizeMessages(co)
	if err != nil {
		return nil, err
	}
	optimized := &core.Derivation{
		Service:  p.d.Service,
		Places:   append([]int(nil), p.d.Places...),
		Entities: res.Entities,
		Opts:     p.d.Opts,
	}
	return &OptimizeReport{
		Before:   res.Before,
		After:    res.After,
		Removed:  append([]int(nil), res.Removed...),
		Protocol: &Protocol{d: optimized},
	}, nil
}

// Centralized is the paper's Section-3 "trivial solution" baseline: a
// single server entity drives client command loops.
type Centralized struct {
	d *core.CentralizedDerivation
}

// DeriveCentralized builds the centralized baseline (server 0 selects the
// smallest place). Disabling is not supported by the baseline.
func (s *Service) DeriveCentralized(server int) (cen *Centralized, err error) {
	defer guard(&err)
	d, err := core.DeriveCentralized(s.spec, server)
	if err != nil {
		return nil, specErr(err)
	}
	return &Centralized{d: d}, nil
}

// Server returns the controlling place.
func (c *Centralized) Server() int { return c.d.Server }

// EntityText renders one entity of the baseline.
func (c *Centralized) EntityText(place int) string {
	e := c.d.Entities[place]
	if e == nil {
		return ""
	}
	return e.String()
}

// MessageCount returns the number of messages a centralized execution
// exchanges (two per remote primitive plus the final halt broadcast).
func (c *Centralized) MessageCount() int { return c.d.MessageCount() }

// ConformanceReport is the verdict of checking a live deployment's recorded
// trace logs against the service: the per-entity logs are merged by global
// sequence number and the resulting observable trace replayed against the
// service LTS.
type ConformanceReport = conformance.Report

// CheckTraceLogs parses the per-entity NDJSON trace logs a pgdeploy
// deployment wrote (one file per entity) and checks the merged global trace
// against this service: accept = trace inclusion, with deadlock flagged on
// quiescent non-final states and missing observations reported as an
// incomplete (prefix-checked) session. maxStates bounds the service
// exploration (0 = default).
func (s *Service) CheckTraceLogs(paths []string, maxStates int) (rep *ConformanceReport, err error) {
	defer guard(&err)
	return conformance.CheckFiles(lotos.CloneSpec(s.spec), paths, maxStates)
}

// Version identifies the library.
const Version = "1.0.0"
