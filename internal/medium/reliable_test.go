package medium

import (
	"testing"
)

func msg(from, to, node int) Message {
	return Message{From: from, To: to, Node: node, Occ: "0"}
}

// consumeWithin ticks the transport's clock until the message can be
// consumed, for at most sweeps ticks.
func consumeWithin(t *testing.T, r *Reliable, want Message, sweeps int) bool {
	t.Helper()
	for i := 0; ; i++ {
		if r.TryConsume(want) {
			return true
		}
		if i == sweeps {
			return false
		}
		r.Tick()
	}
}

func TestReliableDeliversInOrderWithoutLoss(t *testing.T) {
	r := NewReliable(Config{Seed: 1})
	r.Send(msg(1, 2, 10))
	r.Send(msg(1, 2, 11))
	r.Send(msg(1, 2, 12))
	// Strict FIFO: 11 before 10 must fail even after delivery.
	if consumeWithin(t, r, msg(1, 2, 11), 20) {
		t.Fatal("out-of-order consume succeeded")
	}
	for _, n := range []int{10, 11, 12} {
		if !consumeWithin(t, r, msg(1, 2, n), 0) {
			t.Fatalf("message %d not delivered on a lossless immediate wire", n)
		}
	}
	st := r.ARQStats()
	if st.Delivered != 3 || st.Dropped != 0 {
		t.Errorf("stats %+v", st)
	}
}

// TestReliableAckCancelsTimeout: on a lossless immediate wire a frame and
// its ack arrive within Send, so nothing is left due — in particular not
// the acknowledged frame's retransmission timeout.
func TestReliableAckCancelsTimeout(t *testing.T) {
	r := NewReliable(Config{Seed: 1})
	r.Send(msg(1, 2, 10))
	if r.Jump() {
		t.Error("Jump found an entry due after the frame was acknowledged")
	}
	if !r.TryConsume(msg(1, 2, 10)) {
		t.Error("message not delivered")
	}
}

func TestReliableSurvivesHeavyLoss(t *testing.T) {
	r := NewReliable(Config{Seed: 7, LossRate: 0.5})
	const k = 20
	for i := 0; i < k; i++ {
		r.Send(msg(1, 2, 100+i))
	}
	for i := 0; i < k; i++ {
		if !consumeWithin(t, r, msg(1, 2, 100+i), 10000) {
			t.Fatalf("message %d lost despite ARQ", 100+i)
		}
	}
	st := r.ARQStats()
	if st.Delivered != k {
		t.Errorf("delivered %d, want %d", st.Delivered, k)
	}
	if st.Retransmits == 0 || st.FrameLosses == 0 {
		t.Errorf("expected loss and retransmission activity: %+v", st)
	}
	if st.Frames <= k {
		t.Errorf("frames %d should exceed messages %d under 50%% loss", st.Frames, k)
	}
}

// TestReliableWithDelaysAndAckLoss interleaves two channels over a
// delaying, lossy wire. Everything arrives in order, and the same seed
// repeats the same ARQ activity sweep for sweep.
func TestReliableWithDelaysAndAckLoss(t *testing.T) {
	run := func() (ReliableStats, int64) {
		r := NewReliable(Config{Seed: 3, LossRate: 0.3, MaxDelay: 2})
		for i := 0; i < 8; i++ {
			r.Send(msg(1, 2, i))
			r.Send(msg(2, 1, 50+i))
		}
		for i := 0; i < 8; i++ {
			if !consumeWithin(t, r, msg(1, 2, i), 10000) {
				t.Fatalf("1->2 message %d lost", i)
			}
			if !consumeWithin(t, r, msg(2, 1, 50+i), 10000) {
				t.Fatalf("2->1 message %d lost", 50+i)
			}
		}
		return r.ARQStats(), r.now
	}
	st, sweeps := run()
	if st.AckLosses == 0 || st.Retransmits == 0 {
		t.Errorf("expected ack losses and retransmissions: %+v", st)
	}
	if again, againSweeps := run(); again != st || againSweeps != sweeps {
		t.Errorf("same seed, different run: %+v in %d sweeps, then %+v in %d", st, sweeps, again, againSweeps)
	}
}

// TestReliableInFlight checks that a message counts as in flight until it
// is delivered and its ack has drained the send queue.
func TestReliableInFlight(t *testing.T) {
	r := NewReliable(Config{Seed: 2, MaxDelay: 3})
	r.Send(msg(1, 2, 1))
	if r.InFlight() == 0 {
		t.Error("message must be in flight")
	}
	if !consumeWithin(t, r, msg(1, 2, 1), 10) {
		t.Fatal("not delivered")
	}
	for r.InFlight() != 0 && r.Jump() {
	}
	if r.InFlight() != 0 {
		t.Errorf("in flight = %d after delivery+ack", r.InFlight())
	}
}

func TestReliableTryConsumeCheckDoesNotConsume(t *testing.T) {
	r := NewReliable(Config{Seed: 5, MaxDelay: 2})
	r.Send(msg(1, 2, 9))
	for !r.TryConsumeCheck(msg(1, 2, 9)) {
		if !r.Jump() {
			t.Fatal("never delivered")
		}
	}
	// Check twice: peeking must not consume.
	if !r.TryConsumeCheck(msg(1, 2, 9)) || !r.TryConsume(msg(1, 2, 9)) {
		t.Fatal("peek consumed the message")
	}
}

func TestReliableFlushConsume(t *testing.T) {
	r := NewReliable(Config{Seed: 6, MaxDelay: 2})
	r.Send(msg(1, 2, 100))
	r.Send(msg(1, 2, 200))
	r.Send(msg(1, 2, 300))
	// Advance until all three are delivered in order.
	for !r.TryConsumeFlushCheck(msg(1, 2, 300)) {
		if !r.Jump() {
			t.Fatal("messages not delivered")
		}
	}
	if !r.TryConsumeFlush(msg(1, 2, 200)) {
		t.Fatal("flush failed")
	}
	if got := r.ARQStats().Flushed; got != 1 {
		t.Errorf("flushed = %d, want 1", got)
	}
	if !r.TryConsume(msg(1, 2, 300)) {
		t.Error("post-flush message lost")
	}
	if r.TryConsumeFlush(msg(1, 2, 999)) || r.TryConsumeFlushCheck(msg(1, 2, 999)) {
		t.Error("flush of absent message succeeded")
	}
}

func TestBareMediumLossVsReliable(t *testing.T) {
	// The same lossy wire: the bare medium loses messages for good, the
	// ARQ layer does not.
	bare := New(Config{Seed: 11, LossRate: 0.5})
	for i := 0; i < 20; i++ {
		bare.Send(msg(1, 2, i))
	}
	if bare.Stats().Dropped == 0 {
		t.Error("bare medium should drop under 50% loss")
	}
	arq := NewReliable(Config{Seed: 11, LossRate: 0.5})
	for i := 0; i < 20; i++ {
		arq.Send(msg(1, 2, i))
	}
	for i := 0; i < 20; i++ {
		if !consumeWithin(t, arq, msg(1, 2, i), 10000) {
			t.Fatalf("ARQ lost message %d", i)
		}
	}
	if arq.Stats().Dropped != 0 {
		t.Error("ARQ layer must never report drops")
	}
}

func TestMediumPendingDiagnostics(t *testing.T) {
	m := New(Config{Seed: 1})
	m.Send(msg(1, 2, 5))
	m.Send(msg(1, 2, 6))
	got := m.Pending(1, 2)
	if len(got) != 2 || got[0].Node != 5 || got[1].Node != 6 {
		t.Errorf("pending %v", got)
	}
}
