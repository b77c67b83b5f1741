package wire

import (
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/fsm"
	"repro/internal/lotos"
	"repro/internal/medium"
	"repro/internal/sim"
)

// The entity-side deployment runtime: RunEntity is the main loop of one
// derived protocol entity running as its own OS process. The entity owns
// its machine and its network endpoint;
// every scheduling decision comes from the coordinator over the control
// connection, so a seeded distributed session is the in-process lockstep
// execution with the sweeps stretched over TCP.

// DefaultSessionTimeout bounds how long an entity waits on its control
// connection before declaring the session lost.
const DefaultSessionTimeout = 60 * time.Second

// EntityConfig configures one deployed entity process.
type EntityConfig struct {
	// Place is the entity's place number; PlaceIndex its index in the
	// ascending-place order of the deployment (the scheduling-seed index).
	Place      int
	PlaceIndex int
	// Machine is the entity's machine.
	Machine *fsm.Machine
	// Table is the interning table; SpecDigest identifies the service spec.
	Table      *MsgTable
	SpecDigest uint64
	// Coordinator is the control address to dial; Listen the entity's own
	// data listen address ("127.0.0.1:0" for loopback).
	Coordinator string
	Listen      string
	// ChannelCap bounds unacked frames per directed channel.
	ChannelCap int
	// TraceLog receives the entity's NDJSON observable-trace records
	// (nil discards them).
	TraceLog io.Writer
	// Restarted marks a process relaunch appending to an existing log.
	Restarted bool
	// SessionTimeout bounds control-connection waits (default 60s).
	SessionTimeout time.Duration
}

// remoteHarness forwards Choose calls to the coordinator-hosted harness.
// It is called synchronously from inside a granted step, so reading the
// control connection here cannot race the main loop: the coordinator sends
// nothing but the ChooseReply until the step's result is reported.
type remoteHarness struct {
	conn  net.Conn
	table *MsgTable
	err   error
}

// Choose implements sim.Harness over the control connection.
func (h *remoteHarness) Choose(place int, offered []lotos.Event) int {
	if h.err != nil {
		return -1
	}
	f := &Frame{Type: FrameChoose, Offered: make([]ServicePrimitive, len(offered))}
	for i, ev := range offered {
		f.Offered[i] = ServicePrimitive{Name: ev.Name, Place: ev.Place}
	}
	if err := WriteFrame(h.conn, f, h.table); err != nil {
		h.err = fmt.Errorf("wire: harness request: %w", err)
		return -1
	}
	reply, err := ReadFrame(h.conn, h.table)
	if err != nil {
		h.err = fmt.Errorf("wire: harness reply: %w", err)
		return -1
	}
	if reply.Type != FrameChooseReply {
		h.err = fmt.Errorf("wire: harness expected choose-reply, got %s", reply.Type)
		return -1
	}
	return reply.Choice
}

// outcomeString renders Halt outcome flags as the trace-log outcome.
func outcomeString(o OutcomeFlags) string {
	switch {
	case o&OutAborted != 0:
		return OutcomeAborted
	case o&OutCompleted != 0:
		return OutcomeCompleted
	case o&OutDeadlocked != 0:
		return OutcomeDeadlocked
	case o&OutTimedOut != 0:
		return OutcomeTimedOut
	case o&OutStopped != 0:
		return OutcomeStopped
	}
	return "unknown"
}

// RunEntity runs one deployed entity to session end: handshake with the
// coordinator, data-mesh establishment, then the control loop serving step
// grants until Halt. It returns nil on a cleanly halted session.
func RunEntity(cfg EntityConfig) error {
	if cfg.SessionTimeout <= 0 {
		cfg.SessionTimeout = DefaultSessionTimeout
	}
	if cfg.TraceLog == nil {
		cfg.TraceLog = io.Discard
	}
	ep, err := NewEndpoint(EndpointConfig{
		Place: cfg.Place, Table: cfg.Table, ChannelCap: cfg.ChannelCap,
		Listen: cfg.Listen, SpecDigest: cfg.SpecDigest,
	})
	if err != nil {
		return err
	}
	defer ep.Close()

	ctrl, err := net.Dial("tcp", cfg.Coordinator)
	if err != nil {
		return fmt.Errorf("wire: entity %d dial coordinator %s: %w", cfg.Place, cfg.Coordinator, err)
	}
	defer ctrl.Close()
	ctrl.SetDeadline(time.Now().Add(cfg.SessionTimeout))

	hello := &Frame{
		Type: FrameHello, Version: ProtocolVersion, Kind: ConnControl,
		Place: cfg.Place, SpecDigest: cfg.SpecDigest, TableDigest: cfg.Table.Digest(),
		Addr: ep.Addr(),
	}
	if err := WriteFrame(ctrl, hello, cfg.Table); err != nil {
		return fmt.Errorf("wire: entity %d hello: %w", cfg.Place, err)
	}

	peersFrame, err := ReadFrame(ctrl, cfg.Table)
	if err != nil {
		return fmt.Errorf("wire: entity %d awaiting peers: %w", cfg.Place, err)
	}
	if peersFrame.Type != FramePeers {
		return fmt.Errorf("wire: entity %d expected peers, got %s", cfg.Place, peersFrame.Type)
	}
	if err := ep.EstablishMesh(peersFrame.Peers); err != nil {
		return err
	}
	if err := WriteFrame(ctrl, &Frame{Type: FrameReady}, cfg.Table); err != nil {
		return fmt.Errorf("wire: entity %d ready: %w", cfg.Place, err)
	}

	start, err := ReadFrame(ctrl, cfg.Table)
	if err != nil {
		return fmt.Errorf("wire: entity %d awaiting start: %w", cfg.Place, err)
	}
	if start.Type != FrameStart {
		return fmt.Errorf("wire: entity %d expected start, got %s", cfg.Place, start.Type)
	}

	tw, err := NewTraceWriter(cfg.TraceLog, cfg.Place, start.Seed, cfg.SpecDigest, cfg.Restarted)
	if err != nil {
		return err
	}
	harness := &remoteHarness{conn: ctrl, table: cfg.Table}
	st, err := sim.NewEntityStepper(cfg.Place, cfg.Machine, ep,
		harness, sim.RunnerSeed(start.Seed, cfg.PlaceIndex))
	if err != nil {
		return err
	}

	fail := func(err error) error {
		// Best-effort error report, then an aborted end record: the log must
		// say the session did not end cleanly.
		WriteFrame(ctrl, &Frame{Type: FrameError, ErrMsg: err.Error()}, cfg.Table)
		tw.End(OutcomeAborted)
		return err
	}

	// pendingEvent is a reported-but-unsequenced service primitive: the
	// coordinator answers a StepResult carrying an event with the event's
	// global sequence number, which completes the trace-log record.
	pendingEvent := ""
	for {
		ctrl.SetDeadline(time.Now().Add(cfg.SessionTimeout))
		f, err := ReadFrame(ctrl, cfg.Table)
		if err != nil {
			tw.End(OutcomeAborted)
			return fmt.Errorf("wire: entity %d lost coordinator: %w", cfg.Place, err)
		}
		switch f.Type {
		case FrameStep, FrameStepExact:
			var out sim.StepOutcome
			var serr error
			if f.Type == FrameStep {
				out, serr = st.StepOnce()
			} else {
				out, serr = st.StepExact(f.TIndex, fsm.Op(f.Op))
			}
			if serr == nil {
				serr = harness.err
			}
			if serr != nil {
				return fail(serr)
			}
			// Delivery barrier: every message this step sent must be enqueued
			// at its receiver before the coordinator grants the next step, so
			// the next entity's candidate scan sees exactly the queues an
			// in-process shared medium would show it.
			if err := ep.Flush(); err != nil {
				return fail(err)
			}
			res := &Frame{
				Type: FrameStepResult, Progressed: out.Progressed, Done: out.Done,
				Queued: ep.InFlight(),
			}
			if out.HasEvent {
				res.HasEvent = true
				res.EventName = out.Event.String()
				res.EventPlace = cfg.Place
				pendingEvent = res.EventName
			}
			if err := WriteFrame(ctrl, res, cfg.Table); err != nil {
				tw.End(OutcomeAborted)
				return fmt.Errorf("wire: entity %d step result: %w", cfg.Place, err)
			}
		case FrameSeq:
			if pendingEvent == "" {
				return fail(fmt.Errorf("wire: entity %d got a sequence number with no pending event", cfg.Place))
			}
			if err := tw.Event(f.GlobalSeq, pendingEvent); err != nil {
				return fail(err)
			}
			pendingEvent = ""
		case FrameEnabled:
			en, eerr := st.Enabledness()
			if eerr != nil {
				return fail(eerr)
			}
			rep := &Frame{
				Type: FrameEnabledReport, Delta: en.Delta, Local: en.Local,
				RecvReady: en.RecvReady, SendTargets: en.SendTargets,
			}
			for _, p := range peersFrame.Peers {
				if n := len(ep.Pending(p.Place)); n > 0 {
					rep.QueueLens = append(rep.QueueLens, QueueLen{From: p.Place, Len: n})
				}
			}
			if err := WriteFrame(ctrl, rep, cfg.Table); err != nil {
				tw.End(OutcomeAborted)
				return fmt.Errorf("wire: entity %d enabled report: %w", cfg.Place, err)
			}
		case FrameHalt:
			return tw.End(outcomeString(f.Outcome))
		default:
			return fail(fmt.Errorf("wire: entity %d unexpected %s frame on control connection", cfg.Place, f.Type))
		}
	}
}

// Pending returns the entity's queued inbound messages from one peer.
func (ep *Endpoint) Pending(from int) []medium.Message {
	return ep.inner.Pending(from, ep.place)
}
