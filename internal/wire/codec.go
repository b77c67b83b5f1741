// Package wire runs a derived protocol over real TCP: a length-prefixed
// binary codec for the synchronization messages of internal/medium, a
// network medium (Endpoint) presenting the same per-channel FIFO contract
// as the in-process medium — one ordered stream per directed channel, with
// windowed delivery acknowledgments bounding in-flight frames — and the
// deployment control plane (Coordinator, RunEntity) that runs each protocol
// entity as its own OS process and drives seeded sessions whose outcomes
// are byte-identical to in-process sim.Lockstep runs with the same seeds.
//
// The codec is strict: every frame is a 4-byte big-endian body length
// followed by a one-byte frame type and the type's fields; decoding rejects
// oversized lengths before allocating, truncated fields, unknown types and
// trailing garbage. A data frame carries the message identification itself,
// as the derived entities name their messages: a tag, or a node number and
// an occurrence path. No table has to be agreed in advance, so recursive
// entities, which stamp occurrence paths as they instantiate processes,
// travel like every other.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/lotos"
	"repro/internal/medium"
)

// ProtocolVersion is the wire protocol version. DecodeBody checks it first
// in a Hello frame and refuses any other version.
const ProtocolVersion = 3

// Frame size limits. MaxFrameBody bounds the decoded body allocation (a
// corrupt length prefix must not over-allocate); MaxString bounds any
// embedded string; MaxListLen bounds embedded lists (offered events, peer
// tables, queue reports).
const (
	MaxFrameBody = 1 << 20
	MaxString    = 1 << 12
	MaxListLen   = 1 << 12
)

// ErrFrameTooLarge reports a length prefix beyond MaxFrameBody.
var ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

// FrameType discriminates the wire frames.
type FrameType uint8

const (
	// FrameHello opens every connection (data and control).
	FrameHello FrameType = iota + 1
	// FrameData carries one synchronization message on a directed channel.
	FrameData
	// FrameAck acknowledges delivery (enqueue at the receiver) of a data
	// frame; acks are cumulative per channel.
	FrameAck
	// FramePeers distributes the place -> data-address map (coordinator to
	// entity).
	FramePeers
	// FrameReady reports an entity's data mesh is established.
	FrameReady
	// FrameStart begins a session (seed + mode).
	FrameStart
	// FrameStep grants one scheduling step (coordinator to entity).
	FrameStep
	// FrameStepExact grants one exact transition during witness replay.
	FrameStepExact
	// FrameStepResult reports the outcome of a granted step.
	FrameStepResult
	// FrameChoose asks the coordinator-hosted harness to pick among offered
	// service primitives.
	FrameChoose
	// FrameChooseReply answers a FrameChoose.
	FrameChooseReply
	// FrameSeq assigns the global sequence number of an executed service
	// primitive.
	FrameSeq
	// FrameEnabled queries an entity's enabledness (quiescence checks).
	FrameEnabled
	// FrameEnabledReport answers a FrameEnabled.
	FrameEnabledReport
	// FrameHalt ends a session, carrying the global outcome.
	FrameHalt
	// FrameError reports a fatal entity-side error to the coordinator.
	FrameError
)

// String renders the frame type for diagnostics.
func (t FrameType) String() string {
	switch t {
	case FrameHello:
		return "hello"
	case FrameData:
		return "data"
	case FrameAck:
		return "ack"
	case FramePeers:
		return "peers"
	case FrameReady:
		return "ready"
	case FrameStart:
		return "start"
	case FrameStep:
		return "step"
	case FrameStepExact:
		return "step-exact"
	case FrameStepResult:
		return "step-result"
	case FrameChoose:
		return "choose"
	case FrameChooseReply:
		return "choose-reply"
	case FrameSeq:
		return "seq"
	case FrameEnabled:
		return "enabled"
	case FrameEnabledReport:
		return "enabled-report"
	case FrameHalt:
		return "halt"
	case FrameError:
		return "error"
	}
	return fmt.Sprintf("FrameType(%d)", uint8(t))
}

// ConnKind distinguishes the two connection roles in Hello frames.
type ConnKind uint8

const (
	// ConnControl is an entity's connection to the coordinator.
	ConnControl ConnKind = iota
	// ConnData is an entity-to-entity channel connection.
	ConnData
)

// Frame is one decoded wire frame.
type Frame struct {
	Type FrameType

	// Hello fields.
	Version    uint8
	Kind       ConnKind
	Place      int
	SpecDigest uint64
	Addr       string

	// Data / Ack fields. From/To are the directed channel; Seq is the
	// channel-local sequence number (first frame on a channel has Seq 1).
	From, To int
	Seq      uint64
	Msg      Msg

	// Peers fields.
	Peers []Peer

	// Start fields.
	Seed int64
	Mode SessionMode

	// StepExact fields.
	Op     uint8 // fsm.Op of the granted transition kind
	TIndex int

	// StepResult fields.
	Progressed, Done bool
	Queued           int // messages queued in the entity's inbound channels
	HasEvent         bool
	EventName        string
	EventPlace       int

	// Choose fields (offered service primitives, in row order).
	Offered []ServicePrimitive
	// ChooseReply: chosen offer index, -1 declines.
	Choice int

	// Seq assignment (FrameSeq): GlobalSeq of the reported event.
	GlobalSeq int

	// EnabledReport fields.
	Delta, Local, RecvReady bool
	SendTargets             []int
	QueueLens               []QueueLen

	// Halt fields.
	Outcome OutcomeFlags
	Reason  string

	// Error fields.
	ErrMsg string
}

// Peer is one entry of the place -> data-address map.
type Peer struct {
	Place int
	Addr  string
}

// ServicePrimitive identifies one offered service primitive (name + SAP).
type ServicePrimitive struct {
	Name  string
	Place int
}

// QueueLen reports the occupancy of one inbound channel (From -> reporter).
type QueueLen struct {
	From int
	Len  int
}

// SessionMode selects how a session is scheduled.
type SessionMode uint8

const (
	// ModeSeeded is the lockstep-equivalent seeded session: the coordinator
	// grants sweeps in ascending place order and hosts the run harness.
	ModeSeeded SessionMode = iota
	// ModeReplay drives a verification counterexample (compose.Witness)
	// step-for-step through the live deployment.
	ModeReplay
)

// OutcomeFlags encodes a session outcome classification in Halt frames.
type OutcomeFlags uint8

const (
	// OutCompleted: every entity terminated successfully.
	OutCompleted OutcomeFlags = 1 << iota
	// OutDeadlocked: a sweep without progress with nothing in flight.
	OutDeadlocked
	// OutTimedOut: a sweep without progress with messages still queued.
	OutTimedOut
	// OutStopped: the MaxEvents budget was reached.
	OutStopped
	// OutAborted: infrastructure failure (lost entity, transport error) —
	// not a protocol outcome; conformance treats the trace as incomplete.
	OutAborted
)

// Msg is the payload of a data frame: the message identification of
// medium.Message without the channel endpoints (those travel as From/To in
// the frame itself).
type Msg struct {
	Node int
	Occ  string
	Tag  string
}

// MsgOf extracts the payload of a medium message.
func MsgOf(m medium.Message) Msg { return Msg{Node: m.Node, Occ: m.Occ, Tag: m.Tag} }

// Message rebuilds the medium message for channel from -> to.
func (p Msg) Message(from, to int) medium.Message {
	return medium.Message{From: from, To: to, Node: p.Node, Occ: p.Occ, Tag: p.Tag}
}

// msgTagged flags a tag payload; a zero flag byte is a node/occurrence
// payload. Bit 0 is retired (protocol version 2 set it for interned keys)
// and is rejected like any other unknown bit.
const msgTagged = 1 << 1

// encoder appends wire primitives to a buffer.
type encoder struct{ buf []byte }

func (e *encoder) u8(v uint8)       { e.buf = append(e.buf, v) }
func (e *encoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) uint(v int)       { e.uvarint(uint64(v)) }
func (e *encoder) u64(v uint64)     { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }
func (e *encoder) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// zig encodes a signed integer with zigzag.
func (e *encoder) zig(v int64) { e.uvarint(uint64(v)<<1 ^ uint64(v>>63)) }

// decoder consumes wire primitives from a buffer, accumulating the first
// error; every accessor after an error returns a zero value.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: truncated or malformed %s", what)
	}
}

func (d *decoder) u8(what string) uint8 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 1 {
		d.fail(what)
		return 0
	}
	v := d.buf[0]
	d.buf = d.buf[1:]
	return v
}

func (d *decoder) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail(what)
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// uint decodes a non-negative int, bounded to avoid overflow surprises.
func (d *decoder) uint(what string) int {
	v := d.uvarint(what)
	if d.err == nil && v > 1<<31 {
		d.fail(what + " (out of range)")
		return 0
	}
	return int(v)
}

// listLen decodes a list length, enforcing MaxListLen strictly.
func (d *decoder) listLen(what string) int {
	n := d.uint(what)
	if d.err == nil && n > MaxListLen {
		d.fail(what + " (list too long)")
		return 0
	}
	return n
}

func (d *decoder) u64(what string) uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 8 {
		d.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v
}

func (d *decoder) bool(what string) bool { return d.u8(what) != 0 }

func (d *decoder) str(what string) string {
	n := d.uvarint(what)
	if d.err != nil {
		return ""
	}
	if n > MaxString || uint64(len(d.buf)) < n {
		d.fail(what)
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

func (d *decoder) zig(what string) int64 {
	v := d.uvarint(what)
	return int64(v>>1) ^ -int64(v&1)
}

// encodeMsg writes a message payload.
func encodeMsg(e *encoder, m Msg) {
	if m.Tag != "" {
		e.u8(msgTagged)
		e.str(m.Tag)
		return
	}
	e.u8(0)
	e.zig(int64(m.Node))
	e.str(m.Occ)
}

// decodeMsg reads a message payload.
func decodeMsg(d *decoder) Msg {
	switch d.u8("message flags") {
	case msgTagged:
		return Msg{Node: -1, Tag: d.str("message tag")}
	case 0:
		node := d.zig("message node")
		occ := d.str("message occurrence")
		if d.err == nil && (node < -(1<<31) || node > 1<<31) {
			d.fail("message node (out of range)")
			return Msg{}
		}
		return Msg{Node: int(node), Occ: occ}
	default:
		d.fail("message flags (unknown bits)")
		return Msg{}
	}
}

// Encode serializes the frame, including its length prefix.
func (f *Frame) Encode() ([]byte, error) {
	e := &encoder{buf: make([]byte, 4, 64)}
	e.u8(uint8(f.Type))
	switch f.Type {
	case FrameHello:
		e.u8(f.Version)
		e.u8(uint8(f.Kind))
		e.uint(f.Place)
		e.u64(f.SpecDigest)
		e.str(f.Addr)
	case FrameData:
		e.uint(f.From)
		e.uint(f.To)
		e.uvarint(f.Seq)
		encodeMsg(e, f.Msg)
	case FrameAck:
		e.uint(f.From)
		e.uint(f.To)
		e.uvarint(f.Seq)
	case FramePeers:
		e.uint(len(f.Peers))
		for _, p := range f.Peers {
			e.uint(p.Place)
			e.str(p.Addr)
		}
	case FrameReady, FrameStep, FrameEnabled:
		// no fields
	case FrameStart:
		e.zig(f.Seed)
		e.u8(uint8(f.Mode))
	case FrameStepExact:
		e.u8(f.Op)
		e.uint(f.TIndex)
	case FrameStepResult:
		e.bool(f.Progressed)
		e.bool(f.Done)
		e.uint(f.Queued)
		e.bool(f.HasEvent)
		if f.HasEvent {
			e.str(f.EventName)
			e.uint(f.EventPlace)
		}
	case FrameChoose:
		e.uint(len(f.Offered))
		for _, o := range f.Offered {
			e.str(o.Name)
			e.uint(o.Place)
		}
	case FrameChooseReply:
		e.zig(int64(f.Choice))
	case FrameSeq:
		e.uint(f.GlobalSeq)
	case FrameEnabledReport:
		e.bool(f.Delta)
		e.bool(f.Local)
		e.bool(f.RecvReady)
		e.uint(len(f.SendTargets))
		for _, p := range f.SendTargets {
			e.uint(p)
		}
		e.uint(len(f.QueueLens))
		for _, q := range f.QueueLens {
			e.uint(q.From)
			e.uint(q.Len)
		}
	case FrameHalt:
		e.u8(uint8(f.Outcome))
		e.str(f.Reason)
	case FrameError:
		e.str(f.ErrMsg)
	default:
		return nil, fmt.Errorf("wire: cannot encode frame type %s", f.Type)
	}
	body := len(e.buf) - 4
	if body > MaxFrameBody {
		return nil, ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(e.buf[:4], uint32(body))
	return e.buf, nil
}

// DecodeBody parses one frame body (everything after the length prefix).
// It is strict: unknown types, truncated fields, out-of-range values and
// trailing bytes are all errors.
func DecodeBody(body []byte) (*Frame, error) {
	d := &decoder{buf: body}
	f := &Frame{Type: FrameType(d.u8("frame type"))}
	switch f.Type {
	case FrameHello:
		// The version comes first: a Hello of another version has another
		// layout, so nothing after it is read.
		f.Version = d.u8("version")
		if d.err == nil && f.Version != ProtocolVersion {
			return nil, fmt.Errorf("wire: %s frame speaks protocol version %d, want %d", f.Type, f.Version, ProtocolVersion)
		}
		f.Kind = ConnKind(d.u8("conn kind"))
		f.Place = d.uint("place")
		f.SpecDigest = d.u64("spec digest")
		f.Addr = d.str("address")
		if d.err == nil && f.Kind > ConnData {
			d.fail("conn kind (unknown)")
		}
	case FrameData:
		f.From = d.uint("from")
		f.To = d.uint("to")
		f.Seq = d.uvarint("seq")
		f.Msg = decodeMsg(d)
	case FrameAck:
		f.From = d.uint("from")
		f.To = d.uint("to")
		f.Seq = d.uvarint("seq")
	case FramePeers:
		n := d.listLen("peer count")
		for i := 0; i < n && d.err == nil; i++ {
			f.Peers = append(f.Peers, Peer{Place: d.uint("peer place"), Addr: d.str("peer address")})
		}
	case FrameReady, FrameStep, FrameEnabled:
		// no fields
	case FrameStart:
		f.Seed = d.zig("seed")
		f.Mode = SessionMode(d.u8("session mode"))
		if d.err == nil && f.Mode > ModeReplay {
			d.fail("session mode (unknown)")
		}
	case FrameStepExact:
		f.Op = d.u8("op")
		f.TIndex = d.uint("transition index")
	case FrameStepResult:
		f.Progressed = d.bool("progressed")
		f.Done = d.bool("done")
		f.Queued = d.uint("queued")
		f.HasEvent = d.bool("has-event")
		if f.HasEvent {
			f.EventName = d.str("event name")
			f.EventPlace = d.uint("event place")
		}
	case FrameChoose:
		n := d.listLen("offer count")
		for i := 0; i < n && d.err == nil; i++ {
			f.Offered = append(f.Offered, ServicePrimitive{Name: d.str("offer name"), Place: d.uint("offer place")})
		}
	case FrameChooseReply:
		v := d.zig("choice")
		if d.err == nil && (v < -1 || v > MaxListLen) {
			d.fail("choice (out of range)")
		}
		f.Choice = int(v)
	case FrameSeq:
		f.GlobalSeq = d.uint("global seq")
	case FrameEnabledReport:
		f.Delta = d.bool("delta")
		f.Local = d.bool("local")
		f.RecvReady = d.bool("recv-ready")
		n := d.listLen("send-target count")
		for i := 0; i < n && d.err == nil; i++ {
			f.SendTargets = append(f.SendTargets, d.uint("send target"))
		}
		n = d.listLen("queue count")
		for i := 0; i < n && d.err == nil; i++ {
			f.QueueLens = append(f.QueueLens, QueueLen{From: d.uint("queue from"), Len: d.uint("queue len")})
		}
	case FrameHalt:
		f.Outcome = OutcomeFlags(d.u8("outcome"))
		f.Reason = d.str("reason")
	case FrameError:
		f.ErrMsg = d.str("error message")
	default:
		return nil, fmt.Errorf("wire: unknown frame type %d", uint8(f.Type))
	}
	if d.err != nil {
		return nil, fmt.Errorf("%s frame: %w", f.Type, d.err)
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("wire: %s frame has %d trailing bytes", f.Type, len(d.buf))
	}
	return f, nil
}

// WriteFrame encodes and writes one frame.
func WriteFrame(w io.Writer, f *Frame) error {
	buf, err := f.Encode()
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// ReadFrame reads and decodes one length-prefixed frame. The length prefix
// is validated against MaxFrameBody before any body allocation.
func ReadFrame(r io.Reader) (*Frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameBody {
		return nil, ErrFrameTooLarge
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("wire: truncated frame body: %w", err)
	}
	return DecodeBody(body)
}

// ServiceEvent rebuilds the lotos event of a reported service primitive.
func (p ServicePrimitive) Event() lotos.Event { return lotos.ServiceEvent(p.Name, p.Place) }
