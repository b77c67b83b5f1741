package wire

import (
	"fmt"
	"net"
	"sync"

	"repro/internal/medium"
)

// Endpoint is the network medium of one deployed entity: it implements
// medium.Transport over per-peer TCP connections while presenting exactly
// the in-process medium's contract — one FIFO stream per directed channel,
// channel capacity honored end-to-end by windowed delivery acknowledgments.
//
// Inbound messages land in an inner *medium.Medium (immediate-delivery
// configuration), which supplies the FIFO queues, flush semantics and
// generation/wait machinery unchanged; the Endpoint's own work is the wire:
// framing, per-channel sequence numbers, cumulative acks, and the send
// window that makes a full remote queue exert backpressure on the sender
// just as a full in-process channel would block a capacity check.
type Endpoint struct {
	place      int
	inner      *medium.Medium
	specDigest uint64

	mu    sync.Mutex
	cond  *sync.Cond
	conns map[int]*peerConn // peer place -> data connection
	// sendSeq is the next sequence number per outbound channel (to-place);
	// the first frame on a channel carries Seq 1.
	sendSeq map[int]uint64
	// ackedTo is the highest cumulatively acked sequence per outbound
	// channel; sendSeq - ackedTo is the channel's unacked window occupancy.
	ackedTo map[int]uint64
	// recvHi is the highest sequence enqueued per inbound channel
	// (from-place); frames at or below it are duplicates, gaps are losses.
	recvHi map[int]uint64
	// window bounds unacked frames per outbound channel (0 = unbounded).
	window int
	stats  WireStats
	failed error
	closed bool

	ln net.Listener
	wg sync.WaitGroup
}

// WireStats counts Endpoint wire activity (beyond the inner medium's
// queue-level Stats).
type WireStats struct {
	// FramesSent / FramesRecv count data frames on the wire.
	FramesSent int
	FramesRecv int
	// AcksSent / AcksRecv count acknowledgment frames.
	AcksSent int
	AcksRecv int
	// Duplicates counts received data frames at or below the channel's
	// high-water sequence (re-acked, not enqueued).
	Duplicates int
	// Losses counts sequence-number gaps observed on inbound channels
	// (frames that left the sender but never arrived).
	Losses int
	// Reordered counts frames that arrived with a sequence number below an
	// already-seen gap, i.e. out of channel order.
	Reordered int
}

// peerConn is one established data connection.
type peerConn struct {
	place int
	conn  net.Conn
	wmu   sync.Mutex // serializes frame writes
}

// EndpointConfig tunes an Endpoint.
type EndpointConfig struct {
	// Place is the entity's own place number.
	Place int
	// ChannelCap bounds unacked frames per directed channel, mirroring the
	// composition's channel capacity. 0 means unbounded.
	ChannelCap int
	// Listen is the address to listen on ("127.0.0.1:0" for loopback dev).
	Listen string
	// SpecDigest identifies the service spec revision in handshakes.
	SpecDigest uint64
}

// NewEndpoint opens the entity's data listener. ConnectPeers/AcceptPeers
// complete the mesh afterwards.
func NewEndpoint(cfg EndpointConfig) (*Endpoint, error) {
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("wire: listen %s: %w", cfg.Listen, err)
	}
	ep := &Endpoint{
		place:   cfg.Place,
		inner:   medium.New(medium.Config{}),
		conns:   map[int]*peerConn{},
		sendSeq: map[int]uint64{},
		ackedTo: map[int]uint64{},
		recvHi:  map[int]uint64{},
		window:  cfg.ChannelCap,
		ln:      ln,
	}
	ep.cond = sync.NewCond(&ep.mu)
	ep.specDigest = cfg.SpecDigest
	return ep, nil
}

// ChannelCap returns the endpoint's per-channel window bound.
func (ep *Endpoint) ChannelCap() int { return ep.window }

// Addr returns the listener's address (resolves ":0" ports).
func (ep *Endpoint) Addr() string { return ep.ln.Addr().String() }

// Place returns the entity's place number.
func (ep *Endpoint) Place() int { return ep.place }

// EstablishMesh builds the full data mesh against the peer address map:
// the entity dials every peer with a higher place and accepts connections
// from every peer with a lower one — a deterministic orientation so each
// unordered pair establishes exactly one connection, used by both
// directions of the pair's two channels. It blocks until every expected
// connection exists.
func (ep *Endpoint) EstablishMesh(peers []Peer) error {
	expectLower := 0
	var dialErr error
	var dialWG sync.WaitGroup
	var dialMu sync.Mutex
	for _, p := range peers {
		if p.Place == ep.place {
			continue
		}
		if p.Place < ep.place {
			expectLower++
			continue
		}
		dialWG.Add(1)
		go func(p Peer) {
			defer dialWG.Done()
			if err := ep.dial(p); err != nil {
				dialMu.Lock()
				if dialErr == nil {
					dialErr = err
				}
				dialMu.Unlock()
			}
		}(p)
	}
	acceptErr := ep.acceptN(expectLower)
	dialWG.Wait()
	if dialErr != nil {
		return dialErr
	}
	if acceptErr != nil {
		return acceptErr
	}
	ep.mu.Lock()
	for _, pc := range ep.conns {
		ep.wg.Add(1)
		go ep.readLoop(pc)
	}
	ep.mu.Unlock()
	return nil
}

// dial connects to one higher-place peer and completes the handshake.
func (ep *Endpoint) dial(p Peer) error {
	conn, err := net.Dial("tcp", p.Addr)
	if err != nil {
		return fmt.Errorf("wire: entity %d dial peer %d (%s): %w", ep.place, p.Place, p.Addr, err)
	}
	hello := &Frame{
		Type: FrameHello, Version: ProtocolVersion, Kind: ConnData,
		Place: ep.place, SpecDigest: ep.specDigest,
	}
	if err := WriteFrame(conn, hello); err != nil {
		conn.Close()
		return fmt.Errorf("wire: entity %d hello to peer %d: %w", ep.place, p.Place, err)
	}
	reply, err := ReadFrame(conn)
	if err != nil {
		conn.Close()
		return fmt.Errorf("wire: entity %d handshake with peer %d: %w", ep.place, p.Place, err)
	}
	if err := ep.checkHello(reply, p.Place); err != nil {
		conn.Close()
		return err
	}
	ep.register(p.Place, conn)
	return nil
}

// acceptN accepts n inbound data connections from lower-place peers.
func (ep *Endpoint) acceptN(n int) error {
	for i := 0; i < n; i++ {
		conn, err := ep.ln.Accept()
		if err != nil {
			return fmt.Errorf("wire: entity %d accept: %w", ep.place, err)
		}
		hello, err := ReadFrame(conn)
		if err != nil {
			conn.Close()
			return fmt.Errorf("wire: entity %d inbound handshake: %w", ep.place, err)
		}
		if err := ep.checkHello(hello, -1); err != nil {
			conn.Close()
			return err
		}
		reply := &Frame{
			Type: FrameHello, Version: ProtocolVersion, Kind: ConnData,
			Place: ep.place, SpecDigest: ep.specDigest,
		}
		if err := WriteFrame(conn, reply); err != nil {
			conn.Close()
			return fmt.Errorf("wire: entity %d hello reply: %w", ep.place, err)
		}
		ep.register(hello.Place, conn)
	}
	return nil
}

// checkHello validates a data-connection handshake frame. wantPlace -1
// accepts any lower place.
func (ep *Endpoint) checkHello(f *Frame, wantPlace int) error {
	if f.Type != FrameHello {
		return fmt.Errorf("wire: entity %d expected hello, got %s", ep.place, f.Type)
	}
	if f.Kind != ConnData {
		return fmt.Errorf("wire: entity %d expected data connection, got %v", ep.place, f.Kind)
	}
	if wantPlace >= 0 && f.Place != wantPlace {
		return fmt.Errorf("wire: entity %d dialed peer %d but reached %d", ep.place, wantPlace, f.Place)
	}
	if ep.specDigest != 0 && f.SpecDigest != 0 && f.SpecDigest != ep.specDigest {
		return fmt.Errorf("wire: entity %d spec digest mismatch with peer %d", ep.place, f.Place)
	}
	return nil
}

// register records an established data connection.
func (ep *Endpoint) register(place int, conn net.Conn) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if old, ok := ep.conns[place]; ok {
		old.conn.Close()
	}
	ep.conns[place] = &peerConn{place: place, conn: conn}
}

// readLoop consumes frames from one peer connection until it closes.
func (ep *Endpoint) readLoop(pc *peerConn) {
	defer ep.wg.Done()
	for {
		f, err := ReadFrame(pc.conn)
		if err != nil {
			ep.mu.Lock()
			closed := ep.closed
			if !closed && ep.failed == nil {
				ep.failed = fmt.Errorf("wire: entity %d lost peer %d: %w", ep.place, pc.place, err)
			}
			ep.cond.Broadcast()
			ep.mu.Unlock()
			if !closed {
				// Wake any Transport waiter blocked in the inner medium.
				ep.inner.Close()
			}
			return
		}
		switch f.Type {
		case FrameData:
			ep.dataArrives(pc, f)
		case FrameAck:
			ep.ackArrives(f)
		default:
			ep.mu.Lock()
			if ep.failed == nil {
				ep.failed = fmt.Errorf("wire: entity %d unexpected %s frame from peer %d", ep.place, f.Type, pc.place)
			}
			ep.cond.Broadcast()
			ep.mu.Unlock()
		}
	}
}

// dataArrives handles one inbound data frame: duplicate suppression by
// sequence number, loss/reorder accounting on gaps, enqueue into the inner
// medium in arrival order (the wire's FIFO is the channel's FIFO), and a
// cumulative ack back to the sender. Acking after the enqueue makes the ack
// a delivery acknowledgment: when the sender's window drains, every sent
// message is consumable at its receiver.
func (ep *Endpoint) dataArrives(pc *peerConn, f *Frame) {
	if f.To != ep.place {
		return
	}
	ep.mu.Lock()
	hi := ep.recvHi[f.From]
	ep.stats.FramesRecv++
	switch {
	case f.Seq <= hi:
		ep.stats.Duplicates++
		ep.mu.Unlock()
	case f.Seq > hi+1:
		// Gap: frames hi+1 .. seq-1 never arrived (dropped in transit, e.g.
		// by a fault-injection proxy). The wire stream itself cannot
		// reorder, so the gap is loss, counted and skipped — exactly the
		// in-process medium's silent drop.
		ep.stats.Losses += int(f.Seq - hi - 1)
		ep.recvHi[f.From] = f.Seq
		ep.mu.Unlock()
		ep.inner.Send(f.Msg.Message(f.From, f.To))
	default:
		ep.recvHi[f.From] = f.Seq
		ep.mu.Unlock()
		ep.inner.Send(f.Msg.Message(f.From, f.To))
	}
	ack := &Frame{Type: FrameAck, From: f.From, To: f.To, Seq: f.Seq}
	pc.wmu.Lock()
	err := WriteFrame(pc.conn, ack)
	pc.wmu.Unlock()
	ep.mu.Lock()
	if err != nil && ep.failed == nil && !ep.closed {
		ep.failed = fmt.Errorf("wire: entity %d ack to peer %d: %w", ep.place, pc.place, err)
	}
	ep.stats.AcksSent++
	ep.mu.Unlock()
}

// ackArrives advances the cumulative ack high-water of an outbound channel.
func (ep *Endpoint) ackArrives(f *Frame) {
	if f.From != ep.place {
		return
	}
	ep.mu.Lock()
	ep.stats.AcksRecv++
	if f.Seq > ep.ackedTo[f.To] {
		ep.ackedTo[f.To] = f.Seq
	}
	ep.cond.Broadcast()
	ep.mu.Unlock()
}

// Send transmits one message on its directed channel, blocking while the
// channel's unacked window is full — the wire image of the in-process
// medium's bounded channel. Send on a failed or closed endpoint returns
// silently (like Medium.Send after Close); the failure surfaces via Err.
func (ep *Endpoint) Send(msg medium.Message) {
	if msg.From != ep.place {
		return
	}
	if msg.To == ep.place {
		// Self-channel: no wire involved.
		ep.inner.Send(msg)
		return
	}
	ep.mu.Lock()
	for ep.window > 0 && ep.failed == nil && !ep.closed &&
		ep.sendSeq[msg.To]-ep.ackedTo[msg.To] >= uint64(ep.window) {
		ep.cond.Wait()
	}
	if ep.failed != nil || ep.closed {
		ep.mu.Unlock()
		return
	}
	pc := ep.conns[msg.To]
	if pc == nil {
		if ep.failed == nil {
			ep.failed = fmt.Errorf("wire: entity %d has no connection to peer %d", ep.place, msg.To)
		}
		ep.cond.Broadcast()
		ep.mu.Unlock()
		return
	}
	ep.sendSeq[msg.To]++
	seq := ep.sendSeq[msg.To]
	ep.stats.FramesSent++
	ep.mu.Unlock()

	f := &Frame{Type: FrameData, From: msg.From, To: msg.To, Seq: seq, Msg: MsgOf(msg)}
	pc.wmu.Lock()
	err := WriteFrame(pc.conn, f)
	pc.wmu.Unlock()
	if err != nil {
		ep.mu.Lock()
		if ep.failed == nil && !ep.closed {
			ep.failed = fmt.Errorf("wire: entity %d send to peer %d: %w", ep.place, msg.To, err)
		}
		ep.cond.Broadcast()
		ep.mu.Unlock()
	}
}

// Flush blocks until every sent frame has been delivery-acked (or the
// endpoint fails). It is the coordinator's post-step barrier: after Flush,
// the messages this entity sent are enqueued at their receivers, so the
// next entity's candidate scan observes them exactly as it would under the
// in-process shared medium.
func (ep *Endpoint) Flush() error {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	for ep.failed == nil && !ep.closed && ep.unackedLocked() > 0 {
		ep.cond.Wait()
	}
	return ep.failed
}

// unackedLocked sums unacked frames across outbound channels (mu held).
func (ep *Endpoint) unackedLocked() int {
	total := 0
	for to, seq := range ep.sendSeq {
		total += int(seq - ep.ackedTo[to])
	}
	return total
}

// Err reports the endpoint's sticky failure, if any.
func (ep *Endpoint) Err() error {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.failed
}

// WireStats returns a snapshot of the wire counters.
func (ep *Endpoint) WireStats() WireStats {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.stats
}

// Transport delegation: the inner medium owns the inbound queues, so the
// consume/wait face of the Transport contract is its machinery verbatim.

// TryConsume consumes the head-of-queue message if it matches.
func (ep *Endpoint) TryConsume(want medium.Message) bool { return ep.inner.TryConsume(want) }

// TryConsumeCheck reports whether TryConsume would succeed.
func (ep *Endpoint) TryConsumeCheck(want medium.Message) bool { return ep.inner.TryConsumeCheck(want) }

// TryConsumeFlush consumes the wanted message, discarding queue prefix.
func (ep *Endpoint) TryConsumeFlush(want medium.Message) bool { return ep.inner.TryConsumeFlush(want) }

// TryConsumeFlushCheck reports whether TryConsumeFlush would succeed.
func (ep *Endpoint) TryConsumeFlushCheck(want medium.Message) bool {
	return ep.inner.TryConsumeFlushCheck(want)
}

// Generation returns the inbound-queue change generation.
func (ep *Endpoint) Generation() uint64 { return ep.inner.Generation() }

// WaitChange blocks until the inbound queues change past gen.
func (ep *Endpoint) WaitChange(gen uint64) uint64 { return ep.inner.WaitChange(gen) }

// InFlight counts undelivered messages: queued inbound plus unacked
// outbound (sent but not yet known-enqueued at the receiver).
func (ep *Endpoint) InFlight() int {
	ep.mu.Lock()
	unacked := ep.unackedLocked()
	ep.mu.Unlock()
	return ep.inner.InFlight() + unacked
}

// Stats returns the inner medium's queue-level stats.
func (ep *Endpoint) Stats() medium.Stats { return ep.inner.Stats() }

// Close tears the endpoint down: listener, peer connections, inner medium.
func (ep *Endpoint) Close() {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return
	}
	ep.closed = true
	conns := make([]*peerConn, 0, len(ep.conns))
	for _, pc := range ep.conns {
		conns = append(conns, pc)
	}
	ep.cond.Broadcast()
	ep.mu.Unlock()
	ep.ln.Close()
	for _, pc := range conns {
		pc.conn.Close()
	}
	ep.inner.Close()
	ep.wg.Wait()
}

var _ medium.Transport = (*Endpoint)(nil)
