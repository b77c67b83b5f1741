package medium

import (
	"math/rand/v2"
	"slices"
)

// This file implements the error-recovery extension the paper defers to
// future work (Section 6): "for the case of a non-reliable underlying
// communication service it is possible to use our algorithm as a first
// step (assuming a reliable medium) and then use a procedure which will
// systematically transform the error-free protocol into an error-
// recoverable one", in the spirit of [Rama 86].
//
// Rather than rewriting the derived entity texts, the transformation is
// realized as a transport layer: Reliable provides the exactly-once,
// in-order FIFO channels the derived protocol assumes, on top of a lossy,
// delaying "wire", using per-channel stop-and-wait ARQ (sequence numbers,
// acknowledgments, retransmission timeouts). The derived entities run
// unchanged; the experiments show they complete despite loss rates that
// stall the bare medium.

// Transport is the medium interface the runtime entities use. *Medium
// (the paper's reliable FIFO medium) and *Reliable (ARQ over a lossy wire)
// both implement it.
type Transport interface {
	Send(Message)
	TryConsume(Message) bool
	TryConsumeCheck(Message) bool
	TryConsumeFlush(Message) bool
	TryConsumeFlushCheck(Message) bool
	InFlight() int
	Stats() Stats
}

var (
	_ Transport = (*Medium)(nil)
	_ Transport = (*Reliable)(nil)
)

// ReliableStats extends the basic counters with ARQ activity.
type ReliableStats struct {
	Stats
	// Frames counts data-frame transmission attempts (incl. retransmits).
	Frames int
	// FrameLosses counts data frames dropped by the wire.
	FrameLosses int
	// Acks counts acknowledgment transmission attempts.
	Acks int
	// AckLosses counts acknowledgments dropped by the wire.
	AckLosses int
	// Retransmits counts retransmission timeouts that re-sent a frame.
	Retransmits int
	// Duplicates counts received duplicate data frames (re-acked, dropped).
	Duplicates int
}

// chanState is the per-ordered-channel ARQ state.
type chanState struct {
	// Sender side: FIFO of messages not yet acknowledged; the head is the
	// in-flight frame (stop-and-wait).
	sendQ       []Message
	nextSeq     uint64 // sequence number of sendQ[0]
	awaitingAck bool
	// Receiver side.
	expected  uint64
	delivered []Message
}

// wireKind names what a due wire entry does when its sweep comes.
type wireKind uint8

const (
	frameArrival wireKind = iota // a data frame reaches the receiver
	ackArrival                   // a cumulative ack reaches the sender
	rtoExpiry                    // a retransmission timeout expires
)

// wireEntry is one scheduled wire event: a frame or ack arriving, or a
// retransmission timeout, due at a sweep of the virtual clock.
type wireEntry struct {
	due      int64
	kind     wireKind
	from, to int
	seq      uint64
	msg      Message
}

// Reliable is a stop-and-wait ARQ transport over a lossy wire, on the
// virtual clock of the run that steps it: frame and ack arrivals and
// retransmission timeouts are due-sweep entries fired by Tick and Jump, so
// a seeded run is reproducible. It is single-goroutine state, like the
// session that owns it.
type Reliable struct {
	chans map[[2]int]*chanState
	rng   *rand.Rand
	now   int64
	// due holds the scheduled wire entries in scheduling order; entries due
	// at the same sweep fire in that order.
	due   []wireEntry
	rto   int64
	stats ReliableStats
	cfg   Config
}

// NewReliable builds the ARQ transport. cfg describes the wire: its loss
// rate, its delay bound in sweeps and its seed. The retransmission timeout
// is 2*MaxDelay+2 sweeps, longer than any frame-and-ack round trip.
func NewReliable(cfg Config) *Reliable {
	return &Reliable{
		chans: map[[2]int]*chanState{},
		rng:   rand.New(rand.NewPCG(uint64(cfg.Seed), 0x9e3779b97f4a7c15)),
		rto:   2*int64(cfg.MaxDelay) + 2,
		cfg:   cfg,
	}
}

func (r *Reliable) state(from, to int) *chanState {
	key := [2]int{from, to}
	st := r.chans[key]
	if st == nil {
		st = &chanState{}
		r.chans[key] = st
	}
	return st
}

// wireDelay draws a random latency of 0..MaxDelay sweeps.
func (r *Reliable) wireDelay() int64 {
	if r.cfg.MaxDelay <= 0 {
		return 0
	}
	return r.rng.Int64N(int64(r.cfg.MaxDelay) + 1)
}

// lost flips the wire-loss coin.
func (r *Reliable) lost() bool {
	return r.cfg.LossRate > 0 && r.rng.Float64() < r.cfg.LossRate
}

// schedule adds a wire entry due delay sweeps from now.
func (r *Reliable) schedule(delay int64, e wireEntry) {
	e.due = r.now + delay
	r.due = append(r.due, e)
}

// Tick advances the virtual clock by one sweep and fires what fell due.
func (r *Reliable) Tick() {
	r.now++
	r.fire()
}

// Jump advances the virtual clock to the earliest due wire entry and fires
// it, reporting whether one was pending.
func (r *Reliable) Jump() bool {
	if len(r.due) == 0 {
		return false
	}
	next := r.due[0].due
	for _, e := range r.due[1:] {
		next = min(next, e.due)
	}
	r.now = next
	r.fire()
	return true
}

// fire runs every entry due by now in scheduling order, including those
// that firing schedules with zero delay. Firing may also cancel a pending
// entry (an acknowledged frame's timeout), so each round rescans from the
// start.
func (r *Reliable) fire() {
	for {
		i := slices.IndexFunc(r.due, func(e wireEntry) bool { return e.due <= r.now })
		if i < 0 {
			return
		}
		e := r.due[i]
		r.due = slices.Delete(r.due, i, i+1)
		switch e.kind {
		case frameArrival:
			r.frameArrives(e.from, e.to, e.seq, e.msg)
		case ackArrival:
			r.ackArrives(e.from, e.to, e.seq)
		case rtoExpiry:
			// ackArrives cancels the timeout, so its frame is still unacked.
			r.stats.Retransmits++
			r.transmitHead(e.from, e.to, r.state(e.from, e.to))
		}
	}
}

// Send enqueues the message for reliable in-order delivery. Never blocks.
func (r *Reliable) Send(msg Message) {
	r.stats.Sent++
	st := r.state(msg.From, msg.To)
	st.sendQ = append(st.sendQ, msg)
	if !st.awaitingAck {
		r.transmitHead(msg.From, msg.To, st)
		r.fire()
	}
}

// transmitHead puts the head of the send queue on the wire and arms the
// retransmission timeout. The head must exist.
func (r *Reliable) transmitHead(from, to int, st *chanState) {
	st.awaitingAck = true
	e := wireEntry{from: from, to: to, seq: st.nextSeq, msg: st.sendQ[0]}
	r.stats.Frames++
	if r.lost() {
		r.stats.FrameLosses++
	} else {
		e.kind = frameArrival
		r.schedule(r.wireDelay(), e)
	}
	e.kind = rtoExpiry
	r.schedule(r.rto, e)
}

// frameArrives is the receiver-side wire event.
func (r *Reliable) frameArrives(from, to int, seq uint64, msg Message) {
	st := r.state(from, to)
	switch {
	case seq == st.expected:
		st.expected++
		st.delivered = append(st.delivered, msg)
		r.stats.Delivered++
	case seq < st.expected:
		r.stats.Duplicates++
	default:
		// Stop-and-wait never sends ahead; a future frame is impossible.
		return
	}
	// Acknowledge everything up to expected (cumulative ack).
	r.stats.Acks++
	if r.lost() {
		r.stats.AckLosses++
		return
	}
	r.schedule(r.wireDelay(), wireEntry{kind: ackArrival, from: from, to: to, seq: st.expected})
}

// ackArrives is the sender-side wire event.
func (r *Reliable) ackArrives(from, to int, ackSeq uint64) {
	st := r.state(from, to)
	if !st.awaitingAck || ackSeq <= st.nextSeq {
		return // stale ack
	}
	st.nextSeq = ackSeq
	st.sendQ = st.sendQ[1:]
	st.awaitingAck = false
	// The frame is acknowledged: drop its retransmission timeout, the
	// channel's only one (stop-and-wait), so Jump never lands on it.
	r.due = slices.DeleteFunc(r.due, func(e wireEntry) bool {
		return e.kind == rtoExpiry && e.from == from && e.to == to
	})
	if len(st.sendQ) > 0 {
		r.transmitHead(from, to, st)
	}
}

// TryConsume removes the wanted message when it heads the delivered queue.
func (r *Reliable) TryConsume(want Message) bool {
	st := r.state(want.From, want.To)
	if len(st.delivered) == 0 || st.delivered[0] != want {
		return false
	}
	st.delivered = st.delivered[1:]
	return true
}

// TryConsumeCheck reports whether TryConsume would succeed.
func (r *Reliable) TryConsumeCheck(want Message) bool {
	st := r.state(want.From, want.To)
	return len(st.delivered) > 0 && st.delivered[0] == want
}

// TryConsumeFlush removes the wanted message from anywhere in the delivered
// queue, discarding everything before it (interrupt-handshake semantics).
func (r *Reliable) TryConsumeFlush(want Message) bool {
	st := r.state(want.From, want.To)
	for i, m := range st.delivered {
		if m == want {
			st.delivered = st.delivered[i+1:]
			r.stats.Flushed += i
			return true
		}
	}
	return false
}

// TryConsumeFlushCheck reports whether TryConsumeFlush would succeed.
func (r *Reliable) TryConsumeFlushCheck(want Message) bool {
	st := r.state(want.From, want.To)
	for _, m := range st.delivered {
		if m == want {
			return true
		}
	}
	return false
}

// InFlight counts messages accepted but not yet consumed: unacknowledged
// send queues plus delivered-but-unread messages. While it is non-zero the
// system can still progress (retransmission keeps trying).
func (r *Reliable) InFlight() int {
	n := 0
	for _, st := range r.chans {
		n += len(st.sendQ) + len(st.delivered)
	}
	return n
}

// Stats returns the basic counters (sent/delivered/dropped). Dropped is
// always zero: the ARQ layer never loses accepted messages.
func (r *Reliable) Stats() Stats { return r.stats.Stats }

// ARQStats returns the extended ARQ counters.
func (r *Reliable) ARQStats() ReliableStats { return r.stats }
