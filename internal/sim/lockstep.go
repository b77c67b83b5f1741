package sim

import "fmt"

// Lockstep is the deterministic lockstep scheduler: sweeps over the
// entities in ascending place order, each live entity attempting one step
// per sweep, with one global trace. It is the only implementation of the
// sweep: Run steps it over in-process EntitySteppers and the wire
// coordinator over deployed entity processes, so a seeded live session is
// the in-process lockstep execution with the same seed.
type Lockstep struct {
	entities  []Entity
	done      []bool
	live      int
	maxEvents int
	inFlight  func() (int, error)
	clock     Clock
	over      bool

	// Trace is the global service-primitive trace, in execution order.
	Trace []TraceEvent
	// Sweeps counts the sweeps executed so far.
	Sweeps int
	// Deadlocked, TimedOut and Stopped classify the run as the Result
	// fields of the same names: a no-progress sweep with nothing in flight,
	// one with messages in flight (a stuck run), a MaxEvents stop.
	Deadlocked, TimedOut, Stopped bool
}

// Clock is the virtual clock of a transport whose delays, losses and
// retransmissions are scheduled in sweeps (medium.Medium, medium.Reliable).
type Clock interface {
	// Tick advances the clock by one sweep.
	Tick()
	// Jump advances the clock to the transport's next due entry (a delayed
	// message becoming visible, an ARQ frame or ack arriving, a
	// retransmission timeout) and reports whether there was one.
	Jump() bool
}

// NewLockstep builds a lockstep run over entities (ascending place order).
// maxEvents stops the run after that many service primitives (0: no
// limit). inFlight counts the messages in transit; it is consulted only
// after a sweep without progress, to tell a deadlock from a stuck run.
// clock is the transport's virtual clock, ticked once per sweep; nil when
// the transport has none (the wire coordinator's deployed entities).
func NewLockstep(entities []Entity, maxEvents int, inFlight func() (int, error), clock Clock) *Lockstep {
	return &Lockstep{
		entities:  entities,
		done:      make([]bool, len(entities)),
		live:      len(entities),
		maxEvents: maxEvents,
		inFlight:  inFlight,
		clock:     clock,
		over:      len(entities) == 0,
	}
}

// StepN runs up to max full sweeps (max <= 0 means until the run is over).
// It returns the number of sweeps executed and whether the run is over —
// every entity terminated, MaxEvents hit (mid-sweep: the entities after the
// one that hit it are not visited), or a sweep without progress while the
// clock has nothing left due (nothing can unblock such a sweep). A sweep
// without progress while something is due jumps the clock to it instead.
// Splitting a run across StepN calls never changes it: quantum boundaries
// fall exactly between sweeps. An entity error ends the run.
func (l *Lockstep) StepN(max int) (sweeps int, over bool, err error) {
	for !l.over && (max <= 0 || sweeps < max) {
		progress := false
		for i, e := range l.entities {
			if l.done[i] || l.over {
				continue
			}
			out, err := e.StepOnce()
			if err != nil {
				l.over = true
				return sweeps, true, fmt.Errorf("entity %d: %w", e.Place(), err)
			}
			if out.Done {
				l.done[i] = true
				l.live--
			}
			progress = progress || out.Progressed
			if out.HasEvent {
				l.Trace = append(l.Trace, TraceEvent{Seq: len(l.Trace), Place: e.Place(), Ev: out.Event})
				if l.maxEvents > 0 && len(l.Trace) >= l.maxEvents {
					l.Stopped, l.over = true, true
				}
			}
		}
		sweeps++
		l.Sweeps++
		if progress && l.clock != nil {
			l.clock.Tick()
		}
		if !progress && (l.clock == nil || !l.clock.Jump()) {
			n, err := l.inFlight()
			if err != nil {
				l.over = true
				return sweeps, true, err
			}
			l.Deadlocked, l.TimedOut, l.over = n == 0, n != 0, true
		}
		l.over = l.over || l.live == 0
	}
	return sweeps, l.over, nil
}

// Completed reports that every entity terminated.
func (l *Lockstep) Completed() bool { return l.live == 0 }
