package compose

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/equiv"
	"repro/internal/lotos"
	"repro/internal/lts"
)

// dataPhaseSrc is the paper's archetypal disabling use case ("for instance,
// for the disconnecting the data transfer phase of a communication
// protocol"): a non-terminating transfer loop disabled by a disconnect.
// Because the normal part cannot terminate, the paper's shortcoming (i) is
// irrelevant and R2/R3 are vacuous.
const dataPhaseSrc = `
SPEC D [> d2; c1; exit WHERE
  PROC D = a1; b2; D END
ENDSPEC`

func deriveMode(t *testing.T, src string, mode core.InterruptMode) *core.Derivation {
	t.Helper()
	d, err := core.Derive(lotos.MustParse(src), core.Options{Interrupt: mode})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestE14_HandshakeIsTraceFaithful validates the paper's claim for the
// Section 3.3 "alternative implementation": with the request/acknowledge
// handshake, the composed system is trace-equivalent to the LOTOS service —
// no normal-part event can occur after the disabling event.
func TestE14_HandshakeIsTraceFaithful(t *testing.T) {
	// Channel capacity 4: the handshake's ack may need to enter a channel
	// still holding the (structurally bounded) backlog of stale normal-part
	// messages; smaller capacities block the SEND — a bounded-model
	// artifact, since the paper's channels are unbounded.
	d := deriveMode(t, dataPhaseSrc, core.InterruptHandshake)
	rep, err := Verify(d.Service.Spec, d.Entities, VerifyOptions{ObsDepth: 6, MaxStates: 200000, ChannelCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.TracesEqual {
		t.Errorf("handshake mode not trace-faithful:\n%s", rep.Summary())
	}
	if rep.ComposedDeadlocks != 0 {
		t.Errorf("handshake mode deadlocks: %d", rep.ComposedDeadlocks)
	}
}

// TestE14_BroadcastDeviatesOnSameService is the control: the primary
// broadcast implementation exhibits the documented extra interleavings
// (shortcoming (ii)) on the same service.
func TestE14_BroadcastDeviatesOnSameService(t *testing.T) {
	d := deriveMode(t, dataPhaseSrc, core.InterruptBroadcast)
	rep, err := Verify(d.Service.Spec, d.Entities, VerifyOptions{ObsDepth: 6, MaxStates: 200000})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TracesEqual {
		t.Error("broadcast mode unexpectedly trace-faithful (the Section 3.3 deviation vanished?)")
	}
	for _, tr := range rep.OnlyComposed {
		if !strings.Contains(tr, "d2") {
			t.Errorf("extra trace %q does not involve the interrupt", tr)
		}
	}
	if len(rep.OnlyService) != 0 {
		t.Errorf("broadcast mode lost service traces: %v", rep.OnlyService)
	}
}

// TestE14_HandshakeNoEventAfterInterrupt is property (a) stated directly on
// the composed traces: in handshake mode, no trace contains a normal-part
// event after d2.
func TestE14_HandshakeNoEventAfterInterrupt(t *testing.T) {
	d := deriveMode(t, dataPhaseSrc, core.InterruptHandshake)
	sys, err := New(d.Entities, Config{ChannelCap: 2, Limits: lts.Limits{MaxObsDepth: 6, MaxStates: 200000}})
	if err != nil {
		t.Fatal(err)
	}
	g, err := sys.Explore()
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range lts.WeakTraces(g, 6) {
		events := lts.ParseTrace(tr)
		seenInterrupt := false
		for _, ev := range events {
			if ev == "d2" {
				seenInterrupt = true
				continue
			}
			if seenInterrupt && (ev == "a1" || ev == "b2") {
				t.Fatalf("normal event %s after interrupt in trace %q", ev, tr)
			}
		}
	}
}

// TestE14_HandshakeCostsMoreMessages pins the complexity trade-off: the
// handshake pays 2(n-1) per interrupt alternative where the broadcast pays
// at most n-2.
func TestE14_HandshakeCostsMoreMessages(t *testing.T) {
	b := deriveMode(t, dataPhaseSrc, core.InterruptBroadcast)
	h := deriveMode(t, dataPhaseSrc, core.InterruptHandshake)
	cb := core.MessageComplexityMode(b.Service, core.InterruptBroadcast)
	ch := core.MessageComplexityMode(h.Service, core.InterruptHandshake)
	if cb.Total() != b.SendCount() {
		t.Errorf("broadcast accounting %d != sends %d", cb.Total(), b.SendCount())
	}
	if ch.Total() != h.SendCount() {
		t.Errorf("handshake accounting %d != sends %d", ch.Total(), h.SendCount())
	}
	if ch.DisableInterr <= cb.DisableInterr {
		t.Errorf("handshake interrupt cost %d should exceed broadcast %d",
			ch.DisableInterr, cb.DisableInterr)
	}
	// n = 2: handshake pays 2(n-1) = 2; broadcast pays |ALL - {2} - SP(c1)| = 0.
	if ch.DisableInterr != 2 {
		t.Errorf("handshake interrupt messages = %d, want 2", ch.DisableInterr)
	}
}

// TestE14_HandshakeStructure inspects the derived texts: the interrupter
// waits for all acknowledgments before the disabling event.
func TestE14_HandshakeStructure(t *testing.T) {
	d := deriveMode(t, dataPhaseSrc, core.InterruptHandshake)
	p2 := lotos.Format(d.Entity(2).Root.Expr) // interrupter
	// The disabling part must be: send req >> receive ack >> d2; ...
	dis := d.Entity(2).Root.Expr.(*lotos.Disable)
	rhs := lotos.Format(dis.R)
	if !strings.HasPrefix(rhs, "s1(") {
		t.Errorf("interrupter RHS must start with the request send: %s", rhs)
	}
	idxReq := strings.Index(rhs, "s1(")
	idxAck := strings.Index(rhs, "r1(")
	idxEv := strings.Index(rhs, "d2")
	if !(idxReq < idxAck && idxAck < idxEv) {
		t.Errorf("interrupter order wrong (req %d, ack %d, d2 %d): %s", idxReq, idxAck, idxEv, rhs)
	}
	_ = p2
	// The other place starts with the request receive and acknowledges.
	dis1 := d.Entity(1).Root.Expr.(*lotos.Disable)
	rhs1 := lotos.Format(dis1.R)
	if !strings.HasPrefix(rhs1, "r2(") || !strings.Contains(rhs1, "s2(") {
		t.Errorf("peer RHS must receive the request then acknowledge: %s", rhs1)
	}
}

// TestE14_HandshakeResolvesTerminationRace shows that the handshake mode
// with flushing control receives eliminates the E11 Rel/interrupt race on
// the paper's own Example 3: an entity that has passed its Rel barrier still
// holds its disabling arm until global termination, so it can always drain
// the channel up to the interrupt request and acknowledge. The claim is
// checked within two bounds only, both deadlock-free: channel capacity 4 up
// to 5 observable steps, and capacity 8 up to 10 (22,198 states). Capacity 4
// is not enough one recursion deeper: at 6 observable steps it deadlocks
// after read1 push2 read1 push2 eof1, place 1's acknowledgment to place 3
// blocked behind four stale messages on the full channel 1->3.
func TestE14_HandshakeResolvesTerminationRace(t *testing.T) {
	src := `
SPEC S [> interrupt3; exit WHERE
  PROC S = (read1; push2; S >> pop2; write3; exit)
        [] (eof1; make3; exit)
  END
ENDSPEC`
	d := deriveMode(t, src, core.InterruptHandshake)
	for _, c := range []struct{ cap, obsDepth, states int }{{4, 5, 0}, {8, 10, 22198}} {
		sys, err := New(d.Entities, Config{ChannelCap: c.cap, Limits: lts.Limits{MaxObsDepth: c.obsDepth, MaxStates: 400000}})
		if err != nil {
			t.Fatal(err)
		}
		g, err := sys.Explore()
		if err != nil {
			t.Fatal(err)
		}
		if c.states > 0 && g.NumStates() != c.states {
			t.Errorf("capacity %d, depth %d: %d states, want %d", c.cap, c.obsDepth, g.NumStates(), c.states)
		}
		if dls := g.Deadlocks(); len(dls) != 0 {
			for _, st := range dls {
				t.Logf("deadlocked: %s", g.Keys[st])
			}
			t.Errorf("handshake+flush left %d deadlocks on Example 3 (capacity %d, depth %d)", len(dls), c.cap, c.obsDepth)
		}
	}
	_ = equiv.WeakTraceEquivalent
}
