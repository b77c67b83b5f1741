package medium

import (
	"strings"
	"testing"

	"repro/internal/lotos"
)

func TestMediumBasicFIFO(t *testing.T) {
	m := New(Config{Seed: 1})
	m.Send(msg(1, 2, 10))
	m.Send(msg(1, 2, 11))
	if m.InFlight() != 2 {
		t.Fatalf("in flight = %d", m.InFlight())
	}
	if m.TryConsume(msg(1, 2, 11)) {
		t.Error("out-of-order consume succeeded")
	}
	if !m.TryConsumeCheck(msg(1, 2, 10)) || !m.TryConsume(msg(1, 2, 10)) {
		t.Error("head consume failed")
	}
	if !m.TryConsume(msg(1, 2, 11)) {
		t.Error("second consume failed")
	}
	if m.TryConsume(msg(1, 2, 12)) || m.TryConsumeCheck(msg(1, 2, 12)) {
		t.Error("consume from empty channel succeeded")
	}
	st := m.Stats()
	if st.Sent != 2 || st.Delivered != 2 || st.Dropped != 0 || st.Flushed != 0 {
		t.Errorf("stats %+v", st)
	}
}

func TestMediumFlushConsume(t *testing.T) {
	m := New(Config{Seed: 2})
	// Stale normal messages ahead of a control message.
	m.Send(msg(1, 2, 100))
	m.Send(msg(1, 2, 101))
	m.Send(msg(1, 2, 200)) // the "control" message
	m.Send(msg(1, 2, 300)) // after it
	if m.TryConsumeFlush(msg(1, 2, 999)) {
		t.Error("flush of absent message succeeded")
	}
	if !m.TryConsumeFlushCheck(msg(1, 2, 200)) {
		t.Error("flush check failed")
	}
	if !m.TryConsumeFlush(msg(1, 2, 200)) {
		t.Error("flush consume failed")
	}
	st := m.Stats()
	if st.Flushed != 2 {
		t.Errorf("flushed = %d, want 2", st.Flushed)
	}
	// The message after the control message is preserved.
	if !m.TryConsume(msg(1, 2, 300)) {
		t.Error("post-control message lost")
	}
	// The stale ones are gone.
	if m.TryConsume(msg(1, 2, 100)) || m.TryConsume(msg(1, 2, 101)) {
		t.Error("flushed messages still consumable")
	}
}

func TestMediumFlushWithDelaysRespectsVisibility(t *testing.T) {
	const maxDelay = 3
	delayed := 0
	for seed := int64(1); seed <= 20; seed++ {
		m := New(Config{Seed: seed, MaxDelay: maxDelay})
		m.Send(msg(1, 2, 1))
		m.Send(msg(1, 2, 2))
		// The flush check must not see through invisible messages: it
		// holds from the sweep the target turns visible, at most MaxDelay
		// ticks after the send.
		ticks := 0
		for !m.TryConsumeFlushCheck(msg(1, 2, 2)) {
			if ticks == maxDelay {
				t.Fatalf("seed %d: flush target still invisible after %d sweeps", seed, ticks)
			}
			m.Tick()
			ticks++
		}
		if ticks > 0 {
			delayed++
		}
		if !m.TryConsumeFlush(msg(1, 2, 2)) || m.InFlight() != 0 {
			t.Fatalf("seed %d: flush failed or left %d in flight", seed, m.InFlight())
		}
	}
	if delayed == 0 {
		t.Error("no seed delayed the flush target: MaxDelay has no effect")
	}
}

func TestMediumLossCounting(t *testing.T) {
	m := New(Config{Seed: 4, LossRate: 1.0})
	for i := 0; i < 5; i++ {
		m.Send(msg(1, 2, i))
	}
	st := m.Stats()
	if st.Sent != 5 || st.Dropped != 5 || m.InFlight() != 0 {
		t.Errorf("stats %+v inflight %d", st, m.InFlight())
	}
}

// TestMediumTickerWakesDelayedWaiters checks that a receiver polling once
// per sweep gets a channel's delayed messages in send order, each within
// MaxDelay sweeps of its predecessor's visibility.
func TestMediumTickerWakesDelayedWaiters(t *testing.T) {
	const maxDelay = 4
	m := New(Config{Seed: 5, MaxDelay: maxDelay})
	for i := 0; i < 10; i++ {
		m.Send(msg(1, 2, i))
	}
	for i := 0; i < 10; i++ {
		ticks := 0
		for !m.TryConsume(msg(1, 2, i)) {
			if ticks > maxDelay {
				t.Fatalf("message %d not consumable %d sweeps on (pending %v)", i, ticks, m.Pending(1, 2))
			}
			m.Tick()
			ticks++
		}
	}
	if m.InFlight() != 0 {
		t.Errorf("in flight = %d after draining", m.InFlight())
	}
}

func TestMessageHelpersAndString(t *testing.T) {
	send := lotos.SendEvent(3, 7).WithOcc("0/2")
	mg := MessageFor(1, send)
	if mg.From != 1 || mg.To != 3 || mg.Node != 7 || mg.Occ != "0/2" {
		t.Errorf("msg %+v", mg)
	}
	recv := lotos.RecvEvent(1, 7).WithOcc("0/2")
	if mg != WantedBy(3, recv) {
		t.Error("send/recv helper mismatch")
	}
	if !strings.Contains(mg.String(), "1->3") || !strings.Contains(mg.String(), "7#0/2") {
		t.Errorf("string %q", mg.String())
	}
	tagged := Message{From: 2, To: 1, Tag: "halt"}
	if !strings.Contains(tagged.String(), "halt") {
		t.Errorf("tag string %q", tagged.String())
	}
}

// TestTickerIdleNoWakeups checks that a medium with nothing delayed has no
// due entry: Jump reports false and leaves the clock alone, so a stuck run
// is classified at once instead of spinning.
func TestTickerIdleNoWakeups(t *testing.T) {
	m := New(Config{MaxDelay: 2, Seed: 1})
	if m.Jump() {
		t.Error("empty medium reported a due entry")
	}
	m.Send(msg(1, 2, 1))
	for m.Jump() {
	}
	now := m.now
	if !m.TryConsumeCheck(msg(1, 2, 1)) {
		t.Fatal("message not visible once no entry is due")
	}
	if m.Jump() || m.now != now {
		t.Errorf("Jump moved the clock from %d to %d with nothing due", now, m.now)
	}
	immediate := New(Config{Seed: 1})
	immediate.Send(msg(1, 2, 1))
	if immediate.Jump() || !immediate.TryConsumeCheck(msg(1, 2, 1)) {
		t.Error("immediate medium: message not visible at once, or a due entry reported")
	}
}

// TestTickerWakesOnDeadline checks that a delayed message turns visible
// exactly on its due sweep and that Jump lands on that sweep: ticking one
// sweep at a time and jumping reach the same clock value.
func TestTickerWakesOnDeadline(t *testing.T) {
	const maxDelay = 5
	for seed := int64(1); seed <= 20; seed++ {
		ticked := New(Config{MaxDelay: maxDelay, Seed: seed})
		jumped := New(Config{MaxDelay: maxDelay, Seed: seed})
		ticked.Send(msg(1, 2, 5))
		jumped.Send(msg(1, 2, 5))
		for !ticked.TryConsumeCheck(msg(1, 2, 5)) {
			ticked.Tick()
		}
		if ticked.now > maxDelay {
			t.Fatalf("seed %d: visible after %d sweeps, MaxDelay %d", seed, ticked.now, maxDelay)
		}
		if ticked.now > 0 && !jumped.Jump() {
			t.Fatalf("seed %d: delayed message not reported due", seed)
		}
		if jumped.now != ticked.now || !jumped.TryConsume(msg(1, 2, 5)) {
			t.Fatalf("seed %d: Jump landed on sweep %d, message visible on %d", seed, jumped.now, ticked.now)
		}
	}
}
