package wiretest

import (
	"testing"
	"time"

	"repro/internal/compose"
	"repro/internal/medium"
	"repro/internal/wire"
)

// proxyPair builds a two-endpoint mesh with the proxy spliced into the data
// connection: endpoint 1 dials the proxy believing it is endpoint 2.
func proxyPair(t *testing.T, window int, faults Faults) (a, b *wire.Endpoint, px *Proxy) {
	t.Helper()
	b, err := wire.NewEndpoint(wire.EndpointConfig{Place: 2, ChannelCap: window, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	px, err = NewProxy("127.0.0.1:0", b.Addr(), faults)
	if err != nil {
		t.Fatal(err)
	}
	a, err = wire.NewEndpoint(wire.EndpointConfig{Place: 1, ChannelCap: window, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	// One shared peer table: the dialer (place 1) reaches place 2 through
	// the proxy; place 2 ignores its own entry and only accepts.
	peers := []wire.Peer{{Place: 1, Addr: a.Addr()}, {Place: 2, Addr: px.Addr()}}
	done := make(chan error, 1)
	go func() { done <- b.EstablishMesh(peers) }()
	if err := a.EstablishMesh(peers); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close(); px.Close() })
	return a, b, px
}

// drainExpect consumes exactly the expected messages, in order.
func drainExpect(t *testing.T, ep *wire.Endpoint, want []medium.Message) {
	t.Helper()
	for _, m := range want {
		// Delivery is asynchronous over the wire: poll.
		deadline := time.Now().Add(5 * time.Second)
		for !ep.TryConsumeCheck(m) {
			if time.Now().After(deadline) {
				t.Fatalf("message %s never became consumable", m)
			}
			time.Sleep(100 * time.Microsecond)
		}
		if !ep.TryConsume(m) {
			t.Fatalf("message %s not consumable", m)
		}
	}
	if got := ep.InFlight(); got != 0 {
		t.Fatalf("in flight after draining: %d", got)
	}
}

// testMsgs builds n distinct messages on channel 1 -> 2.
func testMsgs(n int) []medium.Message {
	out := make([]medium.Message, n)
	for i := range out {
		out[i] = medium.Message{From: 1, To: 2, Node: 10 + i, Occ: "0"}
	}
	return out
}

// TestProxyDropMirrorsDropAt drops the second frame and requires the
// receiver's queue to match the in-process medium after DropAt: the message
// vanishes, the receiver counts the loss, and the sender's flush barrier
// still drains (forged delivery ack).
func TestProxyDropMirrorsDropAt(t *testing.T) {
	msgs := testMsgs(3)
	a, b, px := proxyPair(t, 1, Faults{Drop: []ChannelSeq{{From: 1, To: 2, Seq: 2}}})
	for _, m := range msgs {
		a.Send(m)
		if err := a.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	med := medium.New(medium.Config{})
	for _, m := range msgs {
		med.Send(m)
	}
	if !med.DropAt(1, 2, 1) {
		t.Fatal("reference DropAt failed")
	}
	drainExpect(t, b, med.Pending(1, 2))
	if st := b.WireStats(); st.Losses != 1 {
		t.Fatalf("receiver losses = %d, want 1 (%+v)", st.Losses, st)
	}
	if st := px.Stats(); st.Dropped != 1 {
		t.Fatalf("proxy dropped = %d, want 1", st.Dropped)
	}
}

// TestProxyDuplicateMirrorsDuplicateAt duplicates the second frame and
// requires the receiver's queue to match the in-process medium after
// DuplicateAt — the same message enqueued twice, later frames renumbered
// transparently (the trailing message still arrives and every ack
// translates back to the sender's numbering, so windows drain).
func TestProxyDuplicateMirrorsDuplicateAt(t *testing.T) {
	msgs := testMsgs(3)
	a, b, px := proxyPair(t, 1, Faults{Duplicate: []ChannelSeq{{From: 1, To: 2, Seq: 2}}})
	for _, m := range msgs {
		a.Send(m)
		if err := a.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	med := medium.New(medium.Config{})
	for _, m := range msgs {
		med.Send(m)
	}
	if !med.DuplicateAt(1, 2, 1) {
		t.Fatal("reference DuplicateAt failed")
	}
	drainExpect(t, b, med.Pending(1, 2))
	if st := px.Stats(); st.Duplicated != 1 {
		t.Fatalf("proxy duplicated = %d, want 1", st.Duplicated)
	}
}

// TestProxySwapMirrorsSwapAt swaps the first two frames and requires the
// receiver's queue to match the in-process medium after SwapAt, with a
// flush barrier between the two sends (the held frame's ack is forged, so
// the lockstep discipline of one flushed send per step cannot deadlock).
func TestProxySwapMirrorsSwapAt(t *testing.T) {
	msgs := testMsgs(3)
	a, b, px := proxyPair(t, 1, Faults{Swap: []ChannelSeq{{From: 1, To: 2, Seq: 1}}})
	for _, m := range msgs {
		a.Send(m)
		if err := a.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	med := medium.New(medium.Config{})
	for _, m := range msgs {
		med.Send(m)
	}
	if !med.SwapAt(1, 2, 0) {
		t.Fatal("reference SwapAt failed")
	}
	drainExpect(t, b, med.Pending(1, 2))
	if st := px.Stats(); st.Swapped != 1 {
		t.Fatalf("proxy swapped = %d, want 1", st.Swapped)
	}
	if st := b.WireStats(); st.Losses != 0 || st.Duplicates != 0 {
		t.Fatalf("swap must not look like loss or duplication: %+v", st)
	}
}

// TestLossPlan compiles witness loss steps to drop schedules and rejects
// what live replay cannot drive.
func TestLossPlan(t *testing.T) {
	w := &compose.Witness{Steps: []compose.WitnessStep{
		{Kind: compose.StepSend, From: 1, To: 2, Msg: "m1"},
		{Kind: compose.StepSend, From: 1, To: 2, Msg: "m2"},
		{Kind: compose.StepLoss, From: 1, To: 2, Index: 0, Msg: "m1"},
		{Kind: compose.StepRecv, From: 1, To: 2, Msg: "m2"},
		{Kind: compose.StepSend, From: 2, To: 1, Msg: "r1"},
		{Kind: compose.StepLoss, From: 2, To: 1, Index: 0, Msg: "r1"},
	}}
	f, err := LossPlan(w)
	if err != nil {
		t.Fatal(err)
	}
	want := []ChannelSeq{{From: 1, To: 2, Seq: 1}, {From: 2, To: 1, Seq: 1}}
	if len(f.Drop) != len(want) {
		t.Fatalf("drops = %+v, want %+v", f.Drop, want)
	}
	for i := range want {
		if f.Drop[i] != want[i] {
			t.Fatalf("drops = %+v, want %+v", f.Drop, want)
		}
	}

	// A receive past the channel head (flush semantics) is rejected.
	flush := &compose.Witness{Steps: []compose.WitnessStep{
		{Kind: compose.StepSend, From: 1, To: 2, Msg: "m1"},
		{Kind: compose.StepSend, From: 1, To: 2, Msg: "m2"},
		{Kind: compose.StepRecv, From: 1, To: 2, Msg: "m2"},
	}}
	if _, err := LossPlan(flush); err == nil {
		t.Fatal("flush receive compiled without error")
	}

	// Duplication faults cannot be compiled to a drop schedule.
	dup := &compose.Witness{Steps: []compose.WitnessStep{
		{Kind: compose.StepSend, From: 1, To: 2, Msg: "m1"},
		{Kind: compose.StepDuplicate, From: 1, To: 2, Index: 0, Msg: "m1"},
	}}
	if _, err := LossPlan(dup); err == nil {
		t.Fatal("duplicate fault compiled without error")
	}

	// A loss striking outside the modeled queue is an inconsistency.
	bad := &compose.Witness{Steps: []compose.WitnessStep{
		{Kind: compose.StepLoss, From: 1, To: 2, Index: 0, Msg: "m1"},
	}}
	if _, err := LossPlan(bad); err == nil {
		t.Fatal("out-of-range loss compiled without error")
	}
}
