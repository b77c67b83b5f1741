// Package sim executes a derived protocol: every protocol entity steps its
// lazily tabled machine (internal/fsm, rows derived with the operational
// semantics of internal/lts) and exchanges synchronization messages through
// the FIFO medium of internal/medium — the runtime counterpart of the
// algebraic composition checked by internal/compose.
//
// Every run is one seeded lockstep execution on the caller's goroutine:
// the entities take turns in ascending place order, one step each per
// sweep, with every interleaving choice drawn from streams derived from
// the run seed. Message delays, losses and the ARQ layer's retransmissions
// run on a virtual clock that advances one tick per sweep, so a run is
// reproducible from its seed whatever the configuration.
//
// Service primitives are offered to a pluggable user harness (the "service
// users" of Fig. 1), executed events are collected into a globally ordered
// trace, and the trace is checked for membership in the service
// specification's weak trace set. Repeated seeded runs give the
// statistical face of the paper's Section-5 correctness theorem under
// scheduling nondeterminism and (optionally) random message delays and
// losses.
package sim

import (
	"math/rand/v2"
	"sync"
	"time"

	"repro/internal/fsm"
	"repro/internal/lotos"
	"repro/internal/medium"
)

// Engine names an entity execution engine. Every entity runs on its
// machine, so the name selects nothing; it is kept for Config.Engine.
type Engine string

// EngineFSM is the one engine: lazily tabled machines (internal/fsm).
const EngineFSM Engine = "fsm"

// TraceEvent is one executed service primitive.
type TraceEvent struct {
	Seq   int
	Place int
	Ev    lotos.Event
}

// String renders "a1".
func (t TraceEvent) String() string { return t.Ev.String() }

// Harness decides, for the user at one place, which of the offered service
// primitives to execute. Returning -1 declines all offers for now (the
// entity waits until something changes). A run calls Choose from the
// goroutine that steps it.
type Harness interface {
	Choose(place int, offered []lotos.Event) int
}

// AcceptAll is a harness that accepts a uniformly random offer.
type AcceptAll struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// NewAcceptAll builds a seeded accept-everything harness.
func NewAcceptAll(seed int64) *AcceptAll {
	return &AcceptAll{rng: rand.New(newPCG(seed))}
}

// Choose implements Harness.
func (h *AcceptAll) Choose(place int, offered []lotos.Event) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(offered) == 0 {
		return -1
	}
	return h.rng.IntN(len(offered))
}

// Scripted is a harness that drives the users along a fixed global sequence
// of service primitives; offers that do not match the next expected
// primitive are declined. It makes directed scenarios reproducible.
type Scripted struct {
	mu     sync.Mutex
	script []string
	cursor int
}

// NewScripted builds a harness for the given event sequence (rendered
// forms, e.g. "read1").
func NewScripted(script []string) *Scripted {
	return &Scripted{script: script}
}

// Choose implements Harness: it claims the next script slot when offered.
func (h *Scripted) Choose(place int, offered []lotos.Event) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.cursor >= len(h.script) {
		return -1
	}
	want := h.script[h.cursor]
	for i, ev := range offered {
		if ev.String() == want {
			h.cursor++
			return i
		}
	}
	return -1
}

// Remaining returns how many script entries were not executed.
func (h *Scripted) Remaining() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.script) - h.cursor
}

// Config tunes a simulation run.
type Config struct {
	// Seed drives every random choice of the run (scheduling decisions,
	// harness, medium delays/losses derive their seeds from it via subSeed).
	Seed int64
	// Medium configures the underlying communication medium. A zero
	// Medium.Seed is derived from Seed.
	Medium medium.Config
	// Reliable interposes the stop-and-wait ARQ layer (medium.Reliable)
	// between the entities and a lossy wire, realizing the Section-6
	// error-recovery transformation: Medium.LossRate and Medium.MaxDelay
	// then describe the unreliable WIRE, while the entities still see
	// exactly-once in-order FIFO channels.
	Reliable bool
	// MaxEvents stops the run after this many service primitives
	// (mandatory for non-terminating services; 0 means unlimited).
	MaxEvents int
	// Timeout bounds a run's wall-clock time (default 5s); a run still going
	// when it expires is reported as timed out.
	Timeout time.Duration
	// Harness supplies user decisions (default: accept-all seeded from
	// Seed).
	Harness Harness
	// Engine is ignored: every entity runs on its machine.
	Engine Engine
	// Fleet supplies the entities' machines. Nil makes Run build them
	// (under Compile); callers running many simulations of one protocol
	// should share one fleet, whose rows then fill once for all of them.
	Fleet *fsm.Fleet
	// Compile configures the machines Run builds when Fleet is nil.
	Compile fsm.Config
	// Deprecated: every run is a lockstep run; the field is ignored.
	Lockstep bool
}

// Result reports one simulation run.
type Result struct {
	// Trace is the global service-primitive trace, in execution order.
	Trace []TraceEvent
	// Completed reports that every entity terminated successfully.
	Completed bool
	// Deadlocked reports a global standstill: every entity blocked, no
	// message in flight.
	Deadlocked bool
	// TimedOut reports a stuck run (no progress, messages in flight and
	// nothing due on the medium's clock) or a wall-clock timeout abort.
	TimedOut bool
	// Stopped reports a MaxEvents stop.
	Stopped bool
	// Medium is the medium counter snapshot.
	Medium medium.Stats
	// Blocked describes the entities' pending states for diagnosis when the
	// run did not complete.
	Blocked map[int]string
	// EventsByPlace counts executed service primitives per place.
	EventsByPlace map[int]int
}

// TraceStrings renders the trace as event strings.
func (r *Result) TraceStrings() []string {
	out := make([]string, len(r.Trace))
	for i, t := range r.Trace {
		out[i] = t.String()
	}
	return out
}

// resolveSeeds fills the config's derived random streams: the default
// harness and the medium seed. Sub-seeds come from the SplitMix64 mix
// (subSeed), never from seed arithmetic — see seed.go. A non-zero
// Medium.Seed is left untouched.
func resolveSeeds(cfg Config) Config {
	if cfg.Harness == nil {
		cfg.Harness = NewAcceptAll(subSeed(cfg.Seed, roleHarness, 0))
	}
	if cfg.Medium.Seed == 0 {
		cfg.Medium.Seed = subSeed(cfg.Seed, roleMedium, 0)
	}
	return cfg
}

// runQuantum is how many sweeps Run executes between checks of its
// wall-clock budget.
const runQuantum = 256

// Run executes the protocol entities until all terminate, the run
// deadlocks or is stuck, MaxEvents service primitives were executed, or the
// timeout expires: a session stepped to completion on the calling
// goroutine.
func Run(entities map[int]*lotos.Spec, cfg Config) (*Result, error) {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Second
	}
	s, err := newSession(entities, cfg)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(cfg.Timeout)
	for {
		_, over, err := s.StepN(runQuantum)
		if err != nil {
			return nil, err
		}
		if over {
			break
		}
		if time.Now().After(deadline) {
			s.ls.TimedOut, s.ls.over = true, true
			break
		}
	}
	return s.Result(), nil
}

// newResult freezes a run's trace and its entities' final states into a
// Result; the caller sets the Deadlocked, TimedOut and Stopped flags.
func newResult(trace []TraceEvent, ms medium.Stats, steppers []*EntityStepper) *Result {
	res := &Result{
		Trace:         append([]TraceEvent(nil), trace...),
		Completed:     true,
		Medium:        ms,
		Blocked:       make(map[int]string, len(steppers)),
		EventsByPlace: map[int]int{},
	}
	for _, e := range steppers {
		res.Completed = res.Completed && e.done
		res.Blocked[e.place] = e.Describe()
	}
	for _, te := range res.Trace {
		res.EventsByPlace[te.Place]++
	}
	return res
}
