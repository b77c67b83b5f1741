// Package medium implements the underlying communication medium of the
// paper's protocol architecture (Section 1 and Section 5.2) for the
// concurrent runtime: one FIFO channel from every entity i to every other
// entity j. The reliable medium does not lose, duplicate or reorder
// messages, and delivers each message after an arbitrary (bounded, random)
// delay.
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
	"time"

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
	// MaxDelay bounds the random delivery delay per message. Zero delivers
	// immediately (interleaving nondeterminism still comes from goroutine
	// scheduling and the runners' random choices).
	MaxDelay time.Duration
	// LossRate is the probability in [0,1) that a message is silently
	// dropped — fault injection beyond the paper's reliable medium.
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

// queued is a message with its earliest visible time.
type queued struct {
	msg     Message
	visible time.Time
	// notified records that the ticker already broadcast this message's
	// visibility, so passing the same deadline never wakes waiters twice.
	notified bool
}

// Medium is a concurrent reliable-FIFO medium. All methods are safe for
// concurrent use.
type Medium struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queues map[[2]int][]queued
	rng    *rand.Rand
	// lastVisible keeps per-channel delivery times monotone so random
	// delays can never reorder one channel's messages (FIFO).
	lastVisible map[[2]int]time.Time
	gen         uint64
	closed      bool
	stats       Stats
	cfg         Config
	// wake nudges the ticker goroutine: a new message may have changed the
	// earliest delivery deadline, or the medium closed. Buffered so signals
	// coalesce and senders never block.
	wake chan struct{}
	// tickerScans counts ticker loop iterations (test instrumentation for
	// the no-busy-poll guarantee).
	tickerScans int
}

// New builds a medium.
func New(cfg Config) *Medium {
	m := &Medium{
		queues:      map[[2]int][]queued{},
		lastVisible: map[[2]int]time.Time{},
		rng:         rand.New(rand.NewPCG(uint64(cfg.Seed), 0x9e3779b97f4a7c15)),
		cfg:         cfg,
		wake:        make(chan struct{}, 1),
	}
	m.cond = sync.NewCond(&m.mu)
	if cfg.MaxDelay > 0 {
		go m.ticker()
	}
	return m
}

// signalTicker nudges the ticker without blocking; signals coalesce.
func (m *Medium) signalTicker() {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// ticker wakes waiters exactly when a delayed message's visible deadline
// passes: the passage of that deadline is a state change (the message has
// become consumable), so the generation advances and WaitChange returns.
// While no delayed message is pending the goroutine blocks on the wake
// channel — an idle medium causes no wakeups at all — and it exits when the
// medium closes.
func (m *Medium) ticker() {
	for {
		m.mu.Lock()
		m.tickerScans++
		if m.closed {
			m.mu.Unlock()
			return
		}
		now := time.Now()
		changed := false
		var next time.Time
		pending := false
		for _, q := range m.queues {
			for i := range q {
				e := &q[i]
				if e.visible.After(now) {
					if !pending || e.visible.Before(next) {
						next, pending = e.visible, true
					}
				} else if !e.notified {
					e.notified = true
					changed = true
				}
			}
		}
		if changed {
			m.gen++
			m.cond.Broadcast()
		}
		m.mu.Unlock()
		if !pending {
			// Idle: every queued message (if any) is already visible and
			// notified. Sleep until a send or Close changes the picture.
			<-m.wake
			continue
		}
		t := time.NewTimer(time.Until(next))
		select {
		case <-m.wake:
			// A new message (possibly with an earlier deadline) arrived,
			// or the medium closed: recompute under the mutex.
			t.Stop()
		case <-t.C:
		}
	}
}

// tickerScanCount returns the number of ticker wakeups so far (tests).
func (m *Medium) tickerScanCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tickerScans
}

// Send enqueues a message (or drops it, per LossRate). It never blocks:
// runtime channels are unbounded, as in the service architecture of
// Section 1.
func (m *Medium) Send(msg Message) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.Sent++
	if m.cfg.LossRate > 0 && m.rng.Float64() < m.cfg.LossRate {
		m.stats.Dropped++
		m.gen++
		m.cond.Broadcast()
		return
	}
	visible := time.Now()
	if m.cfg.MaxDelay > 0 {
		visible = visible.Add(time.Duration(m.rng.Int64N(int64(m.cfg.MaxDelay))))
		key := [2]int{msg.From, msg.To}
		if last := m.lastVisible[key]; visible.Before(last) {
			visible = last
		}
		m.lastVisible[key] = visible
	}
	key := [2]int{msg.From, msg.To}
	// Messages visible on arrival need no further ticker notification.
	m.queues[key] = append(m.queues[key], queued{msg: msg, visible: visible, notified: !visible.After(time.Now())})
	m.gen++
	m.cond.Broadcast()
	if m.cfg.MaxDelay > 0 {
		m.signalTicker()
	}
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
	m.gen++
	m.cond.Broadcast()
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
	m.gen++
	m.cond.Broadcast()
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
	m.gen++
	m.cond.Broadcast()
	return true
}

// TryConsume removes and returns true when the wanted message is at the
// (visible) head of its channel.
func (m *Medium) TryConsume(want Message) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	key := [2]int{want.From, want.To}
	q := m.queues[key]
	if len(q) == 0 {
		return false
	}
	head := q[0]
	if m.cfg.MaxDelay > 0 && time.Now().Before(head.visible) {
		return false
	}
	if head.msg != want {
		return false
	}
	m.queues[key] = q[1:]
	m.stats.Delivered++
	m.gen++
	m.cond.Broadcast()
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
	now := time.Now()
	for i, entry := range q {
		if m.cfg.MaxDelay > 0 && now.Before(entry.visible) {
			return false // not yet visible (nor is anything after it)
		}
		if entry.msg == want {
			m.queues[key] = q[i+1:]
			m.stats.Delivered++
			m.stats.Flushed += i
			m.gen++
			m.cond.Broadcast()
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
	now := time.Now()
	for _, entry := range q {
		if m.cfg.MaxDelay > 0 && now.Before(entry.visible) {
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
	key := [2]int{want.From, want.To}
	q := m.queues[key]
	if len(q) == 0 {
		return false
	}
	head := q[0]
	if m.cfg.MaxDelay > 0 && time.Now().Before(head.visible) {
		return false
	}
	return head.msg == want
}

// Generation returns a counter that increases on every state change; pair
// it with WaitChange to block until something happens.
func (m *Medium) Generation() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.gen
}

// WaitChange blocks while the medium's generation equals gen and the medium
// is open; it returns the current generation. Closing the medium wakes all
// waiters.
func (m *Medium) WaitChange(gen uint64) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.gen == gen && !m.closed {
		m.cond.Wait()
	}
	return m.gen
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

// Close wakes all waiters and stops the delay ticker. Further Sends are
// still accepted (and counted) but no one may be listening.
func (m *Medium) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.cond.Broadcast()
	m.signalTicker()
}

// Closed reports whether Close was called.
func (m *Medium) Closed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}
