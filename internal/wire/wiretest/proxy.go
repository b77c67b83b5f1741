// Package wiretest provides fault injection for the wire transport: a
// frame-aware TCP proxy spliced into a deployment's data mesh that drops,
// duplicates or swaps selected data frames — the live images of the
// composition's medium faults (medium.DropAt / DuplicateAt / SwapAt and the
// compose fault models) — and a planner that turns a verification
// counterexample's loss steps into the proxy's drop schedule, so a
// non-conformant fault-matrix cell replays as a real network execution.
package wiretest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
)

// Wire framing constants, mirrored from internal/wire's codec: the proxy
// parses only the data/ack frame headers (type byte, then channel endpoints
// and sequence number as uvarints) and treats message payloads as opaque
// bytes.
const (
	frameData    = 2
	frameAck     = 3
	maxFrameBody = 1 << 20
)

// ChannelSeq names one data frame: the channel's directed endpoints and the
// frame's sender-side (original) sequence number — the wire image of "the
// k-th message sent on From -> To" (sequence numbers start at 1).
type ChannelSeq struct {
	From, To int
	Seq      uint64
}

// Faults is a proxy manipulation schedule. Each entry strikes at most once;
// at most one manipulation may name a given frame.
//
//   - Drop suppresses the frame. The receiver observes a sequence gap (its
//     loss counter), the sender receives a forged delivery ack so windows
//     and flush barriers drain — the frame simply vanishes, like the
//     in-process medium's DropAt.
//   - Duplicate forwards the frame and an immediate copy under a fresh
//     sequence number (subsequent frames are renumbered, acks translated
//     back), so the receiver enqueues the message twice, like DuplicateAt.
//   - Swap holds the frame and releases it after its channel successor,
//     with payloads exchanged so sequence numbers stay ascending: the
//     receiver enqueues the two messages in swapped order, like SwapAt.
//     The held frame's delivery ack is forged so a sender flushing between
//     the two sends does not deadlock.
type Faults struct {
	Drop      []ChannelSeq
	Duplicate []ChannelSeq
	Swap      []ChannelSeq
}

// Stats counts the manipulations a proxy performed.
type Stats struct {
	Dropped    int
	Duplicated int
	Swapped    int
	// Forwarded counts data frames passed through (including manipulated
	// ones that were forwarded in some form).
	Forwarded int
}

// seqBreak records that wire sequence numbers >= start carry the given
// offset over the original numbering (duplicates shift the tail up).
type seqBreak struct {
	start, offset uint64
}

// chanState is the proxy's per-directed-channel rewrite state.
type chanState struct {
	breaks  []seqBreak
	holding bool
	held    []byte // payload bytes of the held (swap) frame
	heldSeq uint64 // original sequence number of the held frame
}

// offsetAt returns the numbering offset applying to wire sequence w.
func (st *chanState) offsetAt(w uint64) uint64 {
	off := uint64(0)
	for _, b := range st.breaks {
		if w >= b.start {
			off = b.offset
		}
	}
	return off
}

// current returns the offset applying to the next forwarded frame.
func (st *chanState) current() uint64 {
	if n := len(st.breaks); n > 0 {
		return st.breaks[n-1].offset
	}
	return 0
}

// Proxy is a frame-aware TCP forwarder for wire data connections. It
// accepts connections on its own address, dials the real peer for each, and
// forwards frames both ways, applying the fault schedule to data frames and
// keeping the ack stream consistent with the rewritten numbering. Frames it
// does not understand (handshakes) pass through untouched.
type Proxy struct {
	forward string
	faults  Faults

	mu     sync.Mutex
	chans  map[[2]int]*chanState
	stats  Stats
	closed bool
	conns  []net.Conn

	ln net.Listener
	wg sync.WaitGroup
}

// NewProxy starts a proxy listening on listen (e.g. "127.0.0.1:0") and
// forwarding every accepted connection to forward.
func NewProxy(listen, forward string, faults Faults) (*Proxy, error) {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, fmt.Errorf("wiretest: listen %s: %w", listen, err)
	}
	p := &Proxy{forward: forward, faults: faults, chans: map[[2]int]*chanState{}, ln: ln}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address, for splicing into a peer table.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Stats snapshots the manipulation counters.
func (p *Proxy) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Close stops the proxy and tears down every forwarded connection.
func (p *Proxy) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	conns := append([]net.Conn(nil), p.conns...)
	p.mu.Unlock()
	p.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	p.wg.Wait()
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		up, err := p.ln.Accept()
		if err != nil {
			return
		}
		down, err := net.Dial("tcp", p.forward)
		if err != nil {
			up.Close()
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			up.Close()
			down.Close()
			return
		}
		p.conns = append(p.conns, up, down)
		p.mu.Unlock()
		a := &side{conn: up}
		b := &side{conn: down}
		p.wg.Add(2)
		go p.pump(a, b)
		go p.pump(b, a)
	}
}

// side is one end of a forwarded connection with serialized writes (the
// opposite pump and forged acks both write to it).
type side struct {
	conn net.Conn
	wmu  sync.Mutex
}

func (s *side) write(body []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if _, err := s.conn.Write(hdr[:]); err != nil {
		return err
	}
	_, err := s.conn.Write(body)
	return err
}

// readBody reads one length-prefixed frame body.
func readBody(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrameBody {
		return nil, errors.New("wiretest: frame exceeds size limit")
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}

// header is a parsed data/ack frame header.
type header struct {
	from, to int
	seq      uint64
	payload  []byte // opaque message bytes (data frames only)
}

// parseHeader decodes the channel header of a data or ack frame body.
func parseHeader(body []byte) (header, bool) {
	b := body[1:]
	from, n := binary.Uvarint(b)
	if n <= 0 {
		return header{}, false
	}
	b = b[n:]
	to, n := binary.Uvarint(b)
	if n <= 0 {
		return header{}, false
	}
	b = b[n:]
	seq, n := binary.Uvarint(b)
	if n <= 0 {
		return header{}, false
	}
	return header{from: int(from), to: int(to), seq: seq, payload: b[n:]}, true
}

// encodeFrame rebuilds a data/ack frame body from its parts.
func encodeFrame(typ byte, from, to int, seq uint64, payload []byte) []byte {
	buf := make([]byte, 0, 16+len(payload))
	buf = append(buf, typ)
	buf = binary.AppendUvarint(buf, uint64(from))
	buf = binary.AppendUvarint(buf, uint64(to))
	buf = binary.AppendUvarint(buf, seq)
	return append(buf, payload...)
}

// pump forwards frames from src to dst until src closes, applying the fault
// schedule to data frames and renumbering acks.
func (p *Proxy) pump(src, dst *side) {
	defer p.wg.Done()
	for {
		body, err := readBody(src.conn)
		if err != nil {
			// Half of the pair died; propagate to the other half so the
			// endpoints observe the same teardown they would without a proxy.
			dst.conn.Close()
			src.conn.Close()
			return
		}
		if len(body) == 0 {
			continue
		}
		var out [][]byte // frames for dst, in order
		var back []byte  // forged ack for src
		switch body[0] {
		case frameData:
			h, ok := parseHeader(body)
			if !ok {
				out = [][]byte{body}
				break
			}
			out, back = p.onData(h)
		case frameAck:
			h, ok := parseHeader(body)
			if !ok {
				out = [][]byte{body}
				break
			}
			out = [][]byte{p.onAck(h)}
		default:
			out = [][]byte{body}
		}
		for _, b := range out {
			if err := dst.write(b); err != nil {
				src.conn.Close()
				return
			}
		}
		if back != nil {
			if err := src.write(back); err != nil {
				dst.conn.Close()
				return
			}
		}
	}
}

// match reports whether the schedule names this frame.
func match(list []ChannelSeq, from, to int, seq uint64) bool {
	for _, c := range list {
		if c.From == from && c.To == to && c.Seq == seq {
			return true
		}
	}
	return false
}

// onData applies the schedule to one data frame, returning the frames to
// forward toward the receiver and an optional forged ack for the sender.
func (p *Proxy) onData(h header) (out [][]byte, back []byte) {
	key := [2]int{h.from, h.to}
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.chans[key]
	if st == nil {
		st = &chanState{}
		p.chans[key] = st
	}
	off := st.current()
	if st.holding {
		// The held frame's successor arrived: release both with payloads
		// exchanged so the wire sequence stays ascending while the receiver
		// enqueues the messages in swapped order.
		p.stats.Swapped++
		p.stats.Forwarded += 2
		first := encodeFrame(frameData, h.from, h.to, st.heldSeq+off, h.payload)
		second := encodeFrame(frameData, h.from, h.to, h.seq+off, st.held)
		st.holding = false
		st.held = nil
		return [][]byte{first, second}, nil
	}
	switch {
	case match(p.faults.Drop, h.from, h.to, h.seq):
		// Vanish: the receiver sees a gap at the next frame, the sender gets
		// its delivery ack forged (in its own, original numbering).
		p.stats.Dropped++
		return nil, encodeFrame(frameAck, h.from, h.to, h.seq, nil)
	case match(p.faults.Duplicate, h.from, h.to, h.seq):
		// Forward twice; the copy takes the next wire sequence number and
		// every later frame shifts up by one.
		p.stats.Duplicated++
		p.stats.Forwarded += 2
		orig := encodeFrame(frameData, h.from, h.to, h.seq+off, h.payload)
		dup := encodeFrame(frameData, h.from, h.to, h.seq+off+1, h.payload)
		st.breaks = append(st.breaks, seqBreak{start: h.seq + off + 1, offset: off + 1})
		return [][]byte{orig, dup}, nil
	case match(p.faults.Swap, h.from, h.to, h.seq):
		// Hold until the successor; forge the delivery ack now so a sender
		// flushing between the two sends does not wait on a frame the proxy
		// is sitting on.
		st.holding = true
		st.held = append([]byte(nil), h.payload...)
		st.heldSeq = h.seq
		return nil, encodeFrame(frameAck, h.from, h.to, h.seq, nil)
	}
	p.stats.Forwarded++
	return [][]byte{encodeFrame(frameData, h.from, h.to, h.seq+off, h.payload)}, nil
}

// onAck translates an ack from the receiver's (rewritten) numbering back to
// the sender's original numbering.
func (p *Proxy) onAck(h header) []byte {
	key := [2]int{h.from, h.to}
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.chans[key]
	if st == nil {
		return encodeFrame(frameAck, h.from, h.to, h.seq, nil)
	}
	return encodeFrame(frameAck, h.from, h.to, h.seq-st.offsetAt(h.seq), nil)
}

// sortSpecs orders a schedule for stable rendering in diagnostics.
func sortSpecs(specs []ChannelSeq) {
	sort.Slice(specs, func(i, j int) bool {
		a, b := specs[i], specs[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Seq < b.Seq
	})
}
