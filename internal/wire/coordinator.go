package wire

import (
	"fmt"
	"net"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/compose"
	"repro/internal/fsm"
	"repro/internal/lotos"
	"repro/internal/sim"
)

// The coordinator: the deployment's scheduler and service-user harness.
// Each control connection implements sim.Entity, so a seeded session runs
// the same sim.Lockstep sweep as an in-process sim.Session and a witness
// replays through the same sim.Replay loop as sim.ReplayWitness — one
// driver, two transports. A delivery barrier follows every step (the entity
// flushes its sends before reporting), so the queue states any entity
// observes are exactly those of the in-process shared medium. With the
// harness hosted here and seeded sim.HarnessSeed(seed), and each entity's
// scheduling RNG seeded sim.RunnerSeed(seed, placeIndex), a seeded
// distributed session is execution-identical to sim.Run with
// Config{Lockstep: true, Seed: seed}: same candidate rows, same random
// draws, same trace, same outcome.

// CoordinatorConfig configures a deployment coordinator.
type CoordinatorConfig struct {
	// N is the number of entity processes to expect.
	N int
	// SpecDigest identifies the service spec revision; a non-zero entity
	// digest that differs from a non-zero SpecDigest fails the handshake.
	SpecDigest uint64
	// Listen is the control listen address ("127.0.0.1:0" for loopback).
	Listen string
	// MaxEvents stops a seeded session after this many service primitives
	// (0 means unlimited), exactly as sim.Config.MaxEvents.
	MaxEvents int
	// Timeout is the wall-clock budget of one session; on expiry the session
	// aborts (OutAborted) rather than hang (default 60s).
	Timeout time.Duration
	// RewritePeers, when non-nil, edits the peer map sent to each entity —
	// the test seam that splices fault-injection proxies into chosen
	// channels (wiretest).
	RewritePeers func(place int, peers []Peer) []Peer
}

// ctrl is one entity's control connection: the live implementation of the
// sim.Entity contract, so the coordinator schedules deployed entities with
// the same sim.Lockstep sweep and sim.Replay loop as in-process runs.
type ctrl struct {
	c     *Coordinator
	place int
	conn  net.Conn
	addr  string
}

// Coordinator accepts entity control connections and drives sessions.
type Coordinator struct {
	cfg  CoordinatorConfig
	ln   net.Listener
	ents []*ctrl // ascending place order
	// harness answers the entities' user-interaction requests; seq numbers
	// the service primitives executed this session.
	harness sim.Harness
	seq     int
}

// SessionReport is the outcome of one coordinated session, classified as
// sim.Result is so live and in-process runs compare directly.
type SessionReport struct {
	// Trace is the global observable trace (event strings, in global
	// sequence order).
	Trace []string
	// TracePlaces gives the executing place of each trace entry.
	TracePlaces []int
	Completed   bool
	Deadlocked  bool
	TimedOut    bool
	Stopped     bool
	// Aborted marks an infrastructure failure (lost entity, wall-clock
	// budget) — not a protocol outcome; Reason says what happened.
	Aborted bool
	Reason  string
	// Sweeps counts scheduling sweeps.
	Sweeps int
}

// Canonical renders the protocol outcome as one comparable string — the
// byte-identity format of the live-vs-lockstep differential gate.
func (r *SessionReport) Canonical() string {
	return canonicalOutcome(r.Trace, r.Completed, r.Deadlocked, r.TimedOut, r.Stopped)
}

// CanonicalResult renders a sim.Result in SessionReport.Canonical's format.
func CanonicalResult(res *sim.Result) string {
	return canonicalOutcome(res.TraceStrings(), res.Completed, res.Deadlocked, res.TimedOut, res.Stopped)
}

func canonicalOutcome(trace []string, completed, deadlocked, timedOut, stopped bool) string {
	outcome := "none"
	switch {
	case completed:
		outcome = OutcomeCompleted
	case deadlocked:
		outcome = OutcomeDeadlocked
	case timedOut:
		outcome = OutcomeTimedOut
	case stopped:
		outcome = OutcomeStopped
	}
	return outcome + "|" + strings.Join(trace, " ")
}

// NewCoordinator opens the control listener.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("wire: coordinator needs at least one entity")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 60 * time.Second
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("wire: coordinator listen %s: %w", cfg.Listen, err)
	}
	return &Coordinator{cfg: cfg, ln: ln}, nil
}

// Addr returns the control address entities must dial.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// WaitEntities accepts the N entity hellos, distributes the peer map, and
// waits for every entity to report its data mesh established.
func (c *Coordinator) WaitEntities() error {
	deadline := time.Now().Add(c.cfg.Timeout)
	for len(c.ents) < c.cfg.N {
		c.ln.(*net.TCPListener).SetDeadline(deadline)
		conn, err := c.ln.Accept()
		if err != nil {
			return fmt.Errorf("wire: coordinator accept: %w", err)
		}
		conn.SetDeadline(deadline)
		hello, err := ReadFrame(conn)
		if err != nil {
			conn.Close()
			return fmt.Errorf("wire: coordinator handshake: %w", err)
		}
		if hello.Type != FrameHello || hello.Kind != ConnControl {
			conn.Close()
			return fmt.Errorf("wire: coordinator expected control hello, got %s", hello.Type)
		}
		if c.cfg.SpecDigest != 0 && hello.SpecDigest != 0 && hello.SpecDigest != c.cfg.SpecDigest {
			conn.Close()
			return fmt.Errorf("wire: entity %d spec digest mismatch: %016x != %016x",
				hello.Place, hello.SpecDigest, c.cfg.SpecDigest)
		}
		for _, e := range c.ents {
			if e.place == hello.Place {
				conn.Close()
				return fmt.Errorf("wire: duplicate entity place %d", hello.Place)
			}
		}
		c.ents = append(c.ents, &ctrl{c: c, place: hello.Place, conn: conn, addr: hello.Addr})
	}
	sort.Slice(c.ents, func(i, j int) bool { return c.ents[i].place < c.ents[j].place })

	peers := make([]Peer, len(c.ents))
	for i, e := range c.ents {
		peers[i] = Peer{Place: e.place, Addr: e.addr}
	}
	for _, e := range c.ents {
		p := peers
		if c.cfg.RewritePeers != nil {
			p = c.cfg.RewritePeers(e.place, peers)
		}
		if err := WriteFrame(e.conn, &Frame{Type: FramePeers, Peers: p}); err != nil {
			return fmt.Errorf("wire: peers to entity %d: %w", e.place, err)
		}
	}
	for _, e := range c.ents {
		f, err := ReadFrame(e.conn)
		if err != nil {
			return fmt.Errorf("wire: awaiting ready from entity %d: %w", e.place, err)
		}
		if f.Type == FrameError {
			return fmt.Errorf("wire: entity %d failed during mesh setup: %s", e.place, f.ErrMsg)
		}
		if f.Type != FrameReady {
			return fmt.Errorf("wire: entity %d expected ready, got %s", e.place, f.Type)
		}
	}
	return nil
}

// halt broadcasts the session end (best effort) so every entity closes its
// trace log with the outcome.
func (c *Coordinator) halt(outcome OutcomeFlags, reason string) {
	for _, e := range c.ents {
		WriteFrame(e.conn, &Frame{Type: FrameHalt, Outcome: outcome, Reason: reason})
	}
}

// outcomeFlags folds a report's classification into Halt flags.
func (r *SessionReport) outcomeFlags() OutcomeFlags {
	var o OutcomeFlags
	if r.Completed {
		o |= OutCompleted
	}
	if r.Deadlocked {
		o |= OutDeadlocked
	}
	if r.TimedOut {
		o |= OutTimedOut
	}
	if r.Stopped {
		o |= OutStopped
	}
	if r.Aborted {
		o |= OutAborted
	}
	return o
}

// abort closes a failed session: Halt(aborted) to everyone, report flagged.
func (c *Coordinator) abort(rep *SessionReport, err error) (*SessionReport, error) {
	rep.Aborted = true
	rep.Reason = err.Error()
	c.halt(OutAborted, rep.Reason)
	return rep, err
}

// Place implements sim.Entity.
func (e *ctrl) Place() int { return e.place }

// StepOnce implements sim.Entity with a FrameStep grant.
func (e *ctrl) StepOnce() (sim.StepOutcome, error) {
	return e.step(&Frame{Type: FrameStep})
}

// StepExact implements sim.Entity with a FrameStepExact grant.
func (e *ctrl) StepExact(tindex int, op fsm.Op) (sim.StepOutcome, error) {
	return e.step(&Frame{Type: FrameStepExact, Op: uint8(op), TIndex: tindex})
}

// step sends one grant and serves harness requests until the entity's
// StepResult arrives. A service event is sequenced immediately — the
// FrameSeq answer is what lets the entity stamp its log record.
func (e *ctrl) step(grant *Frame) (sim.StepOutcome, error) {
	c := e.c
	if err := WriteFrame(e.conn, grant); err != nil {
		return sim.StepOutcome{}, fmt.Errorf("wire: step grant to entity %d: %w", e.place, err)
	}
	for {
		f, err := ReadFrame(e.conn)
		if err != nil {
			return sim.StepOutcome{}, fmt.Errorf("wire: awaiting step result from entity %d: %w", e.place, err)
		}
		switch f.Type {
		case FrameChoose:
			// The entity's user wants to interact: consult the shared harness
			// exactly as the in-process entity would (one Choose call, same
			// offer order), and return its verdict.
			evs := make([]lotos.Event, len(f.Offered))
			for i, o := range f.Offered {
				evs[i] = o.Event()
			}
			reply := &Frame{Type: FrameChooseReply, Choice: c.harness.Choose(e.place, evs)}
			if err := WriteFrame(e.conn, reply); err != nil {
				return sim.StepOutcome{}, fmt.Errorf("wire: harness reply to entity %d: %w", e.place, err)
			}
		case FrameStepResult:
			out := sim.StepOutcome{Progressed: f.Progressed, Done: f.Done}
			if f.HasEvent {
				// The event is rendered name+place; the place is the
				// entity's own service access point.
				name, ok := strings.CutSuffix(f.EventName, strconv.Itoa(f.EventPlace))
				if !ok {
					return out, fmt.Errorf("wire: entity %d reported event %q not at place %d", e.place, f.EventName, f.EventPlace)
				}
				out.HasEvent, out.Event = true, lotos.ServiceEvent(name, f.EventPlace)
				seq := &Frame{Type: FrameSeq, GlobalSeq: c.seq}
				c.seq++
				if err := WriteFrame(e.conn, seq); err != nil {
					return out, fmt.Errorf("wire: sequencing event for entity %d: %w", e.place, err)
				}
			}
			return out, nil
		case FrameError:
			return sim.StepOutcome{}, fmt.Errorf("wire: entity %d failed: %s", e.place, f.ErrMsg)
		default:
			return sim.StepOutcome{}, fmt.Errorf("wire: entity %d sent unexpected %s during step", e.place, f.Type)
		}
	}
}

// Enabledness implements sim.Entity with a FrameEnabled query.
func (e *ctrl) Enabledness() (sim.Enabled, error) {
	f, err := e.enabledReport()
	if err != nil {
		return sim.Enabled{}, err
	}
	return sim.Enabled{Delta: f.Delta, Local: f.Local, RecvReady: f.RecvReady, SendTargets: f.SendTargets}, nil
}

// enabledReport queries the entity's enabledness and the occupancy of its
// inbound channels.
func (e *ctrl) enabledReport() (*Frame, error) {
	if err := WriteFrame(e.conn, &Frame{Type: FrameEnabled}); err != nil {
		return nil, fmt.Errorf("wire: enabled query to entity %d: %w", e.place, err)
	}
	f, err := ReadFrame(e.conn)
	if err != nil {
		return nil, fmt.Errorf("wire: awaiting enabled report from entity %d: %w", e.place, err)
	}
	if f.Type == FrameError {
		return nil, fmt.Errorf("wire: entity %d failed: %s", e.place, f.ErrMsg)
	}
	if f.Type != FrameEnabledReport {
		return nil, fmt.Errorf("wire: entity %d expected enabled report, got %s", e.place, f.Type)
	}
	return f, nil
}

// start broadcasts the session start and arms the wall-clock budget.
func (c *Coordinator) start(seed int64, mode SessionMode, harness sim.Harness) error {
	deadline := time.Now().Add(c.cfg.Timeout)
	c.harness, c.seq = harness, 0
	for _, e := range c.ents {
		e.conn.SetDeadline(deadline)
	}
	for _, e := range c.ents {
		f := &Frame{Type: FrameStart, Seed: seed, Mode: mode}
		if err := WriteFrame(e.conn, f); err != nil {
			return fmt.Errorf("wire: start to entity %d: %w", e.place, err)
		}
	}
	return nil
}

// RunSeeded drives one seeded session to its end through sim.Lockstep —
// the sweep sim.Session runs in process — with the harness hosted here. A
// sweep without progress is classified from the entities' queued messages:
// with the delivery barrier nothing is on the wire, so their sum is the
// global in-flight count. The report's protocol outcome is byte-identical
// (Canonical) to sim.Run with Config{Lockstep: true, Seed: seed} over the
// same entities.
func (c *Coordinator) RunSeeded(seed int64) (*SessionReport, error) {
	rep := &SessionReport{}
	if err := c.start(seed, ModeSeeded, sim.NewAcceptAll(sim.HarnessSeed(seed))); err != nil {
		return c.abort(rep, err)
	}
	ls := sim.NewLockstep(c.entities(), c.cfg.MaxEvents, c.totalQueued)
	_, _, err := ls.StepN(0)
	for _, te := range ls.Trace {
		rep.Trace = append(rep.Trace, te.String())
		rep.TracePlaces = append(rep.TracePlaces, te.Place)
	}
	rep.Sweeps = ls.Sweeps
	if err != nil {
		return c.abort(rep, err)
	}
	rep.Completed, rep.Deadlocked, rep.TimedOut, rep.Stopped = ls.Completed(), ls.Deadlocked, ls.TimedOut, ls.Stopped
	c.halt(rep.outcomeFlags(), "")
	return rep, nil
}

// entities returns the control connections as sim entities.
func (c *Coordinator) entities() []sim.Entity {
	ents := make([]sim.Entity, len(c.ents))
	for i, e := range c.ents {
		ents[i] = e
	}
	return ents
}

// totalQueued sums queued messages across every entity's inbound channels.
// It is consulted after a sweep without progress, when the queues are
// static, so the per-entity reports form a consistent snapshot.
func (c *Coordinator) totalQueued() (int, error) {
	total := 0
	for _, e := range c.ents {
		f, err := e.enabledReport()
		if err != nil {
			return 0, err
		}
		for _, q := range f.QueueLens {
			total += q.Len
		}
	}
	return total, nil
}

// RunReplay drives a verification counterexample step-for-step through the
// live deployment with sim.Replay — the loop sim.ReplayWitness runs in
// process. Entity steps become exact grants; loss steps are realized by the
// fault-injection proxy on the wire (configured from the same witness, see
// wiretest), so the coordinator only advances past them. Duplication and
// reordering faults are not supported live: their wire realization would
// need sequence-number rewriting that the conformance contract has no use
// for.
func (c *Coordinator) RunReplay(w *compose.Witness) (*sim.ReplayResult, error) {
	if w != nil && (w.Faults.Duplication || w.Faults.Reorder) {
		return nil, fmt.Errorf("wire: live replay supports loss faults only")
	}
	// The replay harness is never consulted: every grant is exact.
	err := c.start(0, ModeReplay, sim.NewScripted(nil))
	var res *sim.ReplayResult
	if err == nil {
		res, err = sim.Replay(c.entities(), liveMedium{c}, w)
	}
	// The halt outcome is what the entities close their trace logs with, so
	// it must be the replay's faithful classification: a deadlocked replay
	// logged as completed would read, to the conformance checker, as a
	// termination the service never allowed.
	switch {
	case err != nil:
		c.halt(OutAborted, err.Error())
		return nil, err
	case res.Deadlocked:
		c.halt(OutDeadlocked, "replay done")
	case res.Terminated:
		c.halt(OutCompleted, "replay done")
	default:
		c.halt(OutStopped, "replay done")
	}
	return res, nil
}

// liveMedium is the medium side of a live replay: loss steps were realized
// by the proxies as the frames passed (the abstract queue position is
// accounted for by the plan that configured them, wiretest.LossPlan), and
// queue lengths come from the receiving entity's enabled report.
type liveMedium struct{ c *Coordinator }

// Fault implements sim.WitnessMedium.
func (m liveMedium) Fault(st compose.WitnessStep) error {
	if st.Kind != compose.StepLoss {
		return fmt.Errorf("unsupported kind %q for live replay", st.Kind)
	}
	return nil
}

// QueueLen implements sim.WitnessMedium.
func (m liveMedium) QueueLen(from, to int) (int, error) {
	for _, e := range m.c.ents {
		if e.place != to {
			continue
		}
		f, err := e.enabledReport()
		if err != nil {
			return 0, err
		}
		for _, q := range f.QueueLens {
			if q.From == from {
				return q.Len, nil
			}
		}
	}
	return 0, nil
}

// Swappable implements sim.WitnessMedium; live replay admits no reordering
// fault model, so it is never consulted.
func (m liveMedium) Swappable(from, to int) bool { return false }

// Close tears down the control plane.
func (c *Coordinator) Close() {
	c.ln.Close()
	for _, e := range c.ents {
		e.conn.Close()
	}
}
