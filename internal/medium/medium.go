// Package medium implements the underlying communication medium of the
// paper's protocol architecture (Section 1 and Section 5.2) for the
// runtime: one FIFO channel from every entity i to every other entity j.
// The reliable medium does not lose, duplicate or reorder messages, and
// delivers each message after an arbitrary (bounded, random) delay. Delays
// and timers run on a virtual clock that the lockstep scheduler advances
// one tick per sweep, so a seeded run is reproducible.
//
// Beyond the paper's reliable medium, the package supports fault injection
// (message loss) used by the Section-6 discussion of error-recoverable
// protocols: the derived protocols assume reliability, and the experiments
// show how they stall when that assumption is broken.
package medium

import (
	"fmt"
	"math/rand/v2"
	"sync"

	"repro/internal/lotos"
)

// Message is one synchronization message in transit. From/To are entity
// places; the payload mirrors the message identification of the derived
// specifications: either a node number plus occurrence, or a symbolic tag.
type Message struct {
	From, To int
	Node     int
	Occ      string
	Tag      string
}

// MessageFor builds the message a send event of the given entity emits.
func MessageFor(self int, ev lotos.Event) Message {
	return Message{From: self, To: ev.Place, Node: ev.Node, Occ: ev.Occ, Tag: ev.Tag}
}

// WantedBy builds the message a receive event of the given entity expects.
func WantedBy(self int, ev lotos.Event) Message {
	return Message{From: ev.Place, To: self, Node: ev.Node, Occ: ev.Occ, Tag: ev.Tag}
}

// String renders the message for diagnostics.
func (m Message) String() string {
	if m.Tag != "" {
		return fmt.Sprintf("%d->%d:%s", m.From, m.To, m.Tag)
	}
	return fmt.Sprintf("%d->%d:%d#%s", m.From, m.To, m.Node, m.Occ)
}

// Config tunes the medium.
type Config struct {
	// MaxDelay bounds the random delivery delay, counted in lockstep
	// sweeps: a message (under Reliable, each data frame and each
	// acknowledgment) arrives 0..MaxDelay sweeps after it is sent, the delay
	// drawn from the medium's seeded random source. Zero delivers
	// immediately.
	MaxDelay int
	// LossRate is the probability in [0,1) that a message is silently
	// dropped — fault injection beyond the paper's reliable medium. Under
	// Reliable it is the wire's per-frame loss rate.
	LossRate float64
	// Seed seeds the medium's random source (delays and losses).
	Seed int64
}

// Stats counts medium activity.
type Stats struct {
	Sent      int
	Delivered int
	Dropped   int
	// Flushed counts messages discarded by flushing receives (interrupt
	// handshake control messages drain their channel).
	Flushed int
	// Duplicated counts extra copies enqueued by duplication faults.
	Duplicated int
	// Reordered counts adjacent swaps applied by reordering faults.
	Reordered int
}

// queued is a message with the sweep at which it becomes visible.
type queued struct {
	msg     Message
	visible int64
}

// Medium is a reliable-FIFO medium on a virtual clock: the clock advances
// only by Tick and Jump, so with a fixed seed its delays and losses are the
// same in every run. All methods are safe for concurrent use (a deployed
// entity's endpoint enqueues from its connection readers).
type Medium struct {
	mu     sync.Mutex
	queues map[[2]int][]queued
	rng    *rand.Rand
	now    int64
	stats  Stats
	cfg    Config
}

// New builds a medium.
func New(cfg Config) *Medium {
	return &Medium{
		queues: map[[2]int][]queued{},
		rng:    rand.New(rand.NewPCG(uint64(cfg.Seed), 0x9e3779b97f4a7c15)),
		cfg:    cfg,
	}
}

// Tick advances the virtual clock by one sweep.
func (m *Medium) Tick() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.now++
}

// Jump advances the virtual clock to the earliest sweep at which a queued
// message becomes visible, and reports whether one was pending.
func (m *Medium) Jump() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	next := int64(-1)
	for _, q := range m.queues {
		for _, e := range q {
			if e.visible > m.now && (next < 0 || e.visible < next) {
				next = e.visible
			}
		}
	}
	if next < 0 {
		return false
	}
	m.now = next
	return true
}

// Send enqueues a message (or drops it, per LossRate). It never blocks:
// runtime channels are unbounded, as in the service architecture of
// Section 1. A delayed message never overtakes an earlier one on its
// channel (FIFO).
func (m *Medium) Send(msg Message) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.Sent++
	if m.cfg.LossRate > 0 && m.rng.Float64() < m.cfg.LossRate {
		m.stats.Dropped++
		return
	}
	key := [2]int{msg.From, msg.To}
	q := m.queues[key]
	visible := m.now
	if m.cfg.MaxDelay > 0 {
		visible += m.rng.Int64N(int64(m.cfg.MaxDelay) + 1)
		if n := len(q); n > 0 && q[n-1].visible > visible {
			visible = q[n-1].visible
		}
	}
	m.queues[key] = append(q, queued{msg: msg, visible: visible})
}

// DropAt deterministically removes the message at the given queue position
// of channel from->to (a targeted loss fault, used by counterexample
// replay). Reports whether the position existed.
func (m *Medium) DropAt(from, to, index int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	key := [2]int{from, to}
	q := m.queues[key]
	if index < 0 || index >= len(q) {
		return false
	}
	m.queues[key] = append(q[:index:index], q[index+1:]...)
	m.stats.Dropped++
	return true
}

// DuplicateAt deterministically inserts an adjacent copy of the message at
// the given queue position of channel from->to (a targeted duplication
// fault, used by counterexample replay). The copy inherits the original's
// visibility. Reports whether the position existed.
func (m *Medium) DuplicateAt(from, to, index int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	key := [2]int{from, to}
	q := m.queues[key]
	if index < 0 || index >= len(q) {
		return false
	}
	nq := make([]queued, 0, len(q)+1)
	nq = append(nq, q[:index+1]...)
	nq = append(nq, q[index])
	nq = append(nq, q[index+1:]...)
	m.queues[key] = nq
	m.stats.Duplicated++
	return true
}

// SwapAt deterministically swaps the message contents of queue positions
// index and index+1 of channel from->to (a targeted adjacent-reordering
// fault, used by counterexample replay). Visible times stay in place, so
// delivery times remain monotone. Reports whether both positions existed.
func (m *Medium) SwapAt(from, to, index int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	q := m.queues[[2]int{from, to}]
	if index < 0 || index+1 >= len(q) {
		return false
	}
	q[index].msg, q[index+1].msg = q[index+1].msg, q[index].msg
	m.stats.Reordered++
	return true
}

// TryConsume removes and returns true when the wanted message is at the
// (visible) head of its channel.
func (m *Medium) TryConsume(want Message) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	key := [2]int{want.From, want.To}
	q := m.queues[key]
	if len(q) == 0 || q[0].visible > m.now || q[0].msg != want {
		return false
	}
	m.queues[key] = q[1:]
	m.stats.Delivered++
	return true
}

// TryConsumeFlush removes the wanted message from anywhere in its channel,
// discarding every (visible) message queued before it — the receive
// semantics of interrupt-handshake control messages (see
// core.FlushingMsgID). Returns false when the message is not yet visible.
func (m *Medium) TryConsumeFlush(want Message) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	key := [2]int{want.From, want.To}
	q := m.queues[key]
	for i, entry := range q {
		if entry.visible > m.now {
			return false // not yet visible (nor is anything after it)
		}
		if entry.msg == want {
			m.queues[key] = q[i+1:]
			m.stats.Delivered++
			m.stats.Flushed += i
			return true
		}
	}
	return false
}

// TryConsumeFlushCheck reports whether TryConsumeFlush(want) would succeed.
func (m *Medium) TryConsumeFlushCheck(want Message) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	q := m.queues[[2]int{want.From, want.To}]
	for _, entry := range q {
		if entry.visible > m.now {
			return false
		}
		if entry.msg == want {
			return true
		}
	}
	return false
}

// TryConsumeCheck reports whether TryConsume(want) would currently succeed,
// without consuming anything.
func (m *Medium) TryConsumeCheck(want Message) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	q := m.queues[[2]int{want.From, want.To}]
	return len(q) > 0 && q[0].visible <= m.now && q[0].msg == want
}

// InFlight returns the number of queued (undelivered) messages.
func (m *Medium) InFlight() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, q := range m.queues {
		n += len(q)
	}
	return n
}

// Pending returns the messages currently queued on the channel from->to,
// oldest first (diagnostics).
func (m *Medium) Pending(from, to int) []Message {
	m.mu.Lock()
	defer m.mu.Unlock()
	q := m.queues[[2]int{from, to}]
	out := make([]Message, len(q))
	for i, e := range q {
		out[i] = e.msg
	}
	return out
}

// Stats returns a snapshot of the medium counters.
func (m *Medium) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}
