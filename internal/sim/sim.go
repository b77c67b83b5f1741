// Package sim executes a derived protocol for real: one goroutine per
// protocol entity, each stepping the entity's lazily tabled machine
// (internal/fsm, rows derived with the operational semantics of
// internal/lts) and exchanging synchronization messages through the
// concurrent FIFO medium of internal/medium — the runtime counterpart of
// the algebraic composition checked by internal/compose.
//
// Service primitives are offered to a pluggable user harness (the "service
// users" of Fig. 1), executed events are collected into a globally ordered
// trace, and the trace is checked for membership in the service
// specification's weak trace set. Repeated randomized runs give the
// statistical face of the paper's Section-5 correctness theorem, under real
// concurrency, scheduling nondeterminism, and (optionally) random message
// delays.
package sim

import (
	"fmt"
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
// entity waits until something changes). Implementations must be safe for
// concurrent use by multiple entity goroutines.
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
	// harness, medium delays/losses derive their seeds from it via SubSeed).
	Seed int64
	// Medium configures the underlying communication medium. A zero
	// Medium.Seed is derived from Seed unless MediumSeedSet pins it.
	Medium medium.Config
	// MediumSeedSet marks Medium.Seed as deliberately chosen even when it is
	// zero. Without it a zero Medium.Seed means "unset" and the run derives
	// one from Seed — which would make an explicitly pinned seed 0
	// unreproducible by request.
	MediumSeedSet bool
	// Reliable interposes the stop-and-wait ARQ layer (medium.Reliable)
	// between the entities and a lossy wire, realizing the Section-6
	// error-recovery transformation: Medium.LossRate and Medium.MaxDelay
	// then describe the unreliable WIRE, while the entities still see
	// exactly-once in-order FIFO channels.
	Reliable bool
	// MaxEvents stops the run after this many service primitives
	// (mandatory for non-terminating services; 0 means unlimited).
	MaxEvents int
	// Timeout aborts a stuck run (default 5s).
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
	// Lockstep replaces the concurrent per-entity goroutines with a
	// deterministic single-threaded round-robin scheduler: entities take
	// turns in ascending place order, each attempting one step per sweep.
	// With a fixed Seed the whole execution is reproducible bit for bit —
	// the substrate of the in-process vs live differential tests. Requires the
	// immediate medium (no Reliable, no MaxDelay), whose delivery has no
	// asynchronous component.
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
	// TimedOut reports a timeout abort.
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

// world coordinates the entity goroutines.
type world struct {
	mu       sync.Mutex
	cond     *sync.Cond
	gen      uint64
	waiting  int
	done     int
	total    int
	stopped  bool
	deadlock bool
	timedOut bool
	maxhit   bool
	med      medium.Transport

	trace     []TraceEvent
	maxEvents int
}

func newWorld(total int, med medium.Transport, maxEvents int) *world {
	w := &world{total: total, med: med, maxEvents: maxEvents}
	w.cond = sync.NewCond(&w.mu)
	return w
}

func (w *world) bump() {
	w.mu.Lock()
	w.gen++
	w.cond.Broadcast()
	w.mu.Unlock()
}

func (w *world) stop(timeout bool) {
	w.mu.Lock()
	if !w.stopped {
		w.stopped = true
		w.timedOut = timeout
	}
	w.gen++
	w.cond.Broadcast()
	w.mu.Unlock()
}

func (w *world) isStopped() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stopped
}

// record appends an executed service primitive; it may trigger a MaxEvents
// stop.
func (w *world) record(place int, ev lotos.Event) {
	w.mu.Lock()
	w.trace = append(w.trace, TraceEvent{Seq: len(w.trace), Place: place, Ev: ev})
	if w.maxEvents > 0 && len(w.trace) >= w.maxEvents {
		w.stopped = true
		w.maxhit = true
	}
	w.gen++
	w.cond.Broadcast()
	w.mu.Unlock()
}

// markDone notes an entity's successful termination.
func (w *world) markDone() {
	w.mu.Lock()
	w.done++
	w.gen++
	w.cond.Broadcast()
	w.mu.Unlock()
}

// await blocks until the world generation moves past gen, detecting global
// deadlock: everyone waiting or done, nothing in flight.
func (w *world) await(gen uint64) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.waiting++
	if w.waiting+w.done == w.total && w.med.InFlight() == 0 && !w.stopped {
		w.deadlock = true
		w.stopped = true
		w.gen++
		w.cond.Broadcast()
	}
	for w.gen == gen && !w.stopped {
		w.cond.Wait()
	}
	w.waiting--
	return w.gen
}

func (w *world) generation() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.gen
}

// resolveSeeds fills the config's derived random streams: the default
// harness and the medium seed. Sub-seeds come from the SplitMix64 mix
// (SubSeed), never from seed arithmetic — see seed.go. An explicitly pinned
// Medium.Seed (non-zero, or zero with MediumSeedSet) is left untouched.
func resolveSeeds(cfg Config) Config {
	if cfg.Harness == nil {
		cfg.Harness = NewAcceptAll(SubSeed(cfg.Seed, roleHarness, 0))
	}
	if cfg.Medium.Seed == 0 && !cfg.MediumSeedSet {
		cfg.Medium.Seed = SubSeed(cfg.Seed, roleMedium, 0)
	}
	return cfg
}

// lockstepQuantum is how many sweeps a lockstep Run executes between
// checks of its wall-clock budget.
const lockstepQuantum = 256

// Run executes the protocol entities concurrently until all terminate, the
// run deadlocks, MaxEvents service primitives were executed, or the timeout
// expires.
func Run(entities map[int]*lotos.Spec, cfg Config) (*Result, error) {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Second
	}
	if cfg.Lockstep {
		return runLockstep(entities, cfg)
	}
	cfg = resolveSeeds(cfg)
	var med medium.Transport
	if cfg.Reliable {
		med = medium.NewReliable(medium.ReliableConfig{
			LossRate: cfg.Medium.LossRate,
			MaxDelay: cfg.Medium.MaxDelay,
			Seed:     cfg.Medium.Seed,
		})
	} else {
		med = medium.New(cfg.Medium)
	}
	defer med.Close()

	steppers, err := newSteppers(entities, entityPlaces(entities), med, cfg)
	if err != nil {
		return nil, err
	}
	w := newWorld(len(steppers), med, cfg.MaxEvents)

	// The sim ticker wakes waiters periodically while asynchronous medium
	// events (delayed visibility, ARQ retransmission and delivery) may
	// change what an entity can do. It exits promptly when Run returns: a
	// plain sleep loop would keep bumping a closed world for up to a full
	// tick after the run is over.
	if cfg.Medium.MaxDelay > 0 || cfg.Reliable {
		tick := cfg.Medium.MaxDelay / 4
		if tick <= 0 {
			tick = time.Millisecond
		}
		stopTick := make(chan struct{})
		defer close(stopTick)
		go func() {
			t := time.NewTicker(tick)
			defer t.Stop()
			for {
				select {
				case <-stopTick:
					return
				case <-t.C:
					w.bump()
				}
			}
		}()
	}

	timer := time.AfterFunc(cfg.Timeout, func() { w.stop(true) })
	defer timer.Stop()

	var wg sync.WaitGroup
	errs := make(chan error, len(steppers))
	for _, e := range steppers {
		wg.Add(1)
		go func(e *EntityStepper) {
			defer wg.Done()
			if err := w.run(e); err != nil {
				errs <- fmt.Errorf("entity %d: %w", e.place, err)
				w.stop(false)
			}
		}(e)
	}
	// No separate completion watcher is needed: entities return when they
	// terminate, and a global deadlock is detected by the last entity to
	// block (await), which stops the world and wakes everyone.
	wg.Wait()
	w.stop(false)

	select {
	case err := <-errs:
		return nil, err
	default:
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	res := newResult(w.trace, med.Stats(), steppers)
	res.Deadlocked, res.TimedOut, res.Stopped = w.deadlock, w.timedOut, w.maxhit
	return res, nil
}

// run drives one entity concurrently with the others until successful
// termination or a world stop.
func (w *world) run(e *EntityStepper) error {
	for {
		if w.isStopped() {
			return nil
		}
		gen := w.generation()
		medGen := e.med.Generation()

		out, err := e.StepOnce()
		switch {
		case err != nil:
			return err
		case out.Done:
			w.markDone()
			return nil
		case out.HasEvent:
			w.record(e.place, out.Event)
			continue
		case out.Progressed:
			w.bump()
			continue
		}
		// Block until the world moves (message arrival, script progress,
		// other entities, stop).
		if e.med.Generation() != medGen {
			continue // a message arrived meanwhile; re-evaluate
		}
		w.await(gen)
	}
}

// runLockstep is Run's deterministic mode: a Session run to completion on
// the calling goroutine (the cluster simulator advances the same scheduler
// quantum by quantum, so a cluster session and a lockstep Run with the same
// seed are the same execution), aborted as timed out once the wall-clock
// budget is spent.
func runLockstep(entities map[int]*lotos.Spec, cfg Config) (*Result, error) {
	s, err := NewSession(entities, cfg)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	deadline := time.Now().Add(cfg.Timeout)
	for {
		_, over, err := s.StepN(lockstepQuantum)
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
