package wire

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/medium"
)

// pairUp builds a two-endpoint mesh over loopback.
func pairUp(t *testing.T, window int) (*Endpoint, *Endpoint) {
	t.Helper()
	a, err := NewEndpoint(EndpointConfig{Place: 1, ChannelCap: window, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEndpoint(EndpointConfig{Place: 2, ChannelCap: window, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	peers := []Peer{{Place: 1, Addr: a.Addr()}, {Place: 2, Addr: b.Addr()}}
	done := make(chan error, 1)
	go func() { done <- b.EstablishMesh(peers) }()
	if err := a.EstablishMesh(peers); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

// waitConsumable polls until the wanted message is consumable (delivery is
// asynchronous over the wire).
func waitConsumable(t *testing.T, ep *Endpoint, want medium.Message) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	gen := ep.Generation()
	for !ep.TryConsumeCheck(want) {
		if time.Now().After(deadline) {
			t.Fatalf("message %s never became consumable", want)
		}
		gen = ep.WaitChange(gen)
	}
}

// TestEndpointFIFO sends a sequence of distinct messages and requires them
// consumable in exactly send order — the per-channel FIFO contract.
func TestEndpointFIFO(t *testing.T) {
	a, b := pairUp(t, 0)
	msgs := []medium.Message{
		{From: 1, To: 2, Node: 10, Occ: "0"},
		{From: 1, To: 2, Node: 11, Occ: "0"},
		{From: 1, To: 2, Node: 12, Occ: "0.1"},
		{From: 1, To: 2, Node: -1, Tag: "x"},
	}
	for _, m := range msgs {
		a.Send(m)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	// Head-of-queue discipline: message k+1 must not be consumable before
	// message k was consumed.
	for i, m := range msgs {
		waitConsumable(t, b, m)
		for _, later := range msgs[i+1:] {
			if later != m && b.TryConsumeCheck(later) {
				t.Fatalf("message %s consumable before %s", later, m)
			}
		}
		if !b.TryConsume(m) {
			t.Fatalf("message %s not consumable", m)
		}
	}
	if got := b.InFlight(); got != 0 {
		t.Fatalf("in flight after draining: %d", got)
	}
}

// TestEndpointFlushBarrier requires Flush to block until the receiver has
// enqueued everything: after Flush returns, the messages are consumable
// with no further waiting.
func TestEndpointFlushBarrier(t *testing.T) {
	a, b := pairUp(t, 1)
	m := medium.Message{From: 1, To: 2, Node: 10, Occ: "0"}
	a.Send(m)
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	if !b.TryConsumeCheck(m) {
		t.Fatal("flushed message not consumable at receiver")
	}
	if got := a.InFlight(); got != 0 {
		t.Fatalf("sender in flight after flush: %d", got)
	}
}

// TestEndpointWindowBlocks requires the send window to exert backpressure:
// with window 1 a second Send blocks until the first is delivery-acked.
func TestEndpointWindowBlocks(t *testing.T) {
	a, b := pairUp(t, 1)
	_ = b
	a.Send(medium.Message{From: 1, To: 2, Node: 10, Occ: "0"})
	sent := make(chan struct{})
	go func() {
		a.Send(medium.Message{From: 1, To: 2, Node: 11, Occ: "0"})
		close(sent)
	}()
	// The second send completes only once the ack for the first arrives —
	// which the peer produces on its own; just require it finishes.
	select {
	case <-sent:
	case <-time.After(5 * time.Second):
		t.Fatal("windowed send never unblocked")
	}
}

// TestEndpointBidirectional exercises both directions of one connection.
func TestEndpointBidirectional(t *testing.T) {
	a, b := pairUp(t, 1)
	ma := medium.Message{From: 1, To: 2, Node: 10, Occ: "0"}
	mb := medium.Message{From: 2, To: 1, Node: 20, Occ: "0"}
	a.Send(ma)
	b.Send(mb)
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if !b.TryConsume(ma) || !a.TryConsume(mb) {
		t.Fatal("cross messages not consumable")
	}
}

// TestEndpointSelfChannel keeps place-local messages off the wire.
func TestEndpointSelfChannel(t *testing.T) {
	a, _ := pairUp(t, 1)
	m := medium.Message{From: 1, To: 1, Node: 5, Occ: "0"}
	a.Send(m)
	if !a.TryConsume(m) {
		t.Fatal("self message not consumable")
	}
	if st := a.WireStats(); st.FramesSent != 0 {
		t.Fatalf("self message hit the wire: %+v", st)
	}
}

// TestEndpointPeerLossSurfaces requires a torn-down peer to surface as a
// sticky error, not a hang.
func TestEndpointPeerLossSurfaces(t *testing.T) {
	a, b := pairUp(t, 1)
	b.Close()
	deadline := time.Now().Add(5 * time.Second)
	for a.Err() == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if a.Err() == nil {
		t.Fatal("peer loss never surfaced")
	}
	// Sends and flushes after failure return instead of blocking.
	a.Send(medium.Message{From: 1, To: 2, Node: 10, Occ: "0"})
	if err := a.Flush(); err == nil {
		t.Fatal("flush on failed endpoint reported success")
	}
}

// TestTraceLogRoundTrip writes a session log and parses it back, verifying
// records, digests and the end marker.
func TestTraceLogRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf, 2, 42, 0xabc, false)
	if err != nil {
		t.Fatal(err)
	}
	tw.Event(0, "read1")
	tw.Event(2, "write3")
	if err := tw.End(OutcomeCompleted); err != nil {
		t.Fatal(err)
	}
	log, err := ParseTraceLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if log.Place != 2 || log.Seed != 42 {
		t.Fatalf("start record mangled: %+v", log)
	}
	if !log.Started || !log.Ended || log.Outcome != OutcomeCompleted || !log.DigestOK {
		t.Fatalf("log flags wrong: %+v", log)
	}
	if len(log.Events) != 2 || log.Events[0].Event != "read1" || log.Events[1].Seq != 2 {
		t.Fatalf("events mangled: %+v", log.Events)
	}
}

// TestTraceLogTruncationAndTamper distinguishes the two failure shapes:
// a missing end record parses with Ended false (the crash case), while an
// edited event breaks the digest chain.
func TestTraceLogTruncationAndTamper(t *testing.T) {
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf, 1, 7, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	tw.Event(0, "read1")
	tw.Event(1, "write3")
	truncated := buf.String()
	log, err := ParseTraceLog(strings.NewReader(truncated))
	if err != nil {
		t.Fatal(err)
	}
	if log.Ended {
		t.Fatal("truncated log reported an end record")
	}
	if !log.DigestOK || len(log.Events) != 2 {
		t.Fatalf("truncated log should keep its (valid) events: %+v", log)
	}
	tampered := strings.Replace(truncated, "read1", "fake9", 1)
	log, err = ParseTraceLog(strings.NewReader(tampered))
	if err != nil {
		t.Fatal(err)
	}
	if log.DigestOK {
		t.Fatal("tampered log passed the digest chain")
	}
}

// TestTraceLogRestartSegments checks that a relaunch appending to the same
// log is visible as a restart marker and resets the segment digest.
func TestTraceLogRestartSegments(t *testing.T) {
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf, 1, 7, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	tw.Event(0, "read1")
	// Crash here: no end record. The relaunch appends to the same file.
	tw2, err := NewTraceWriter(&buf, 1, 8, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	tw2.Event(1, "write3")
	if err := tw2.End(OutcomeAborted); err != nil {
		t.Fatal(err)
	}
	log, err := ParseTraceLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if log.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", log.Restarts)
	}
	if !log.DigestOK {
		t.Fatal("per-segment digests should verify independently")
	}
	if log.Seed != 8 {
		t.Fatalf("last start record should win: seed %d", log.Seed)
	}
	// Each start record opens a fresh numbering epoch: only the last
	// segment's events are mergeable, the earlier segment survives as the
	// restart marker.
	if len(log.Events) != 1 || log.Events[0].Event != "write3" {
		t.Fatalf("events = %+v, want the last segment's write3 only", log.Events)
	}
}
