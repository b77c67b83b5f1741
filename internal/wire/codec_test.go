package wire

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fsm"
	"repro/internal/medium"
)

// frameCases enumerates one representative frame per type, and both
// message payload forms.
func frameCases() []*Frame {
	return []*Frame{
		{Type: FrameHello, Version: ProtocolVersion, Kind: ConnControl, Place: 3,
			SpecDigest: 0xdeadbeef, Addr: "127.0.0.1:4242"},
		{Type: FrameData, From: 1, To: 2, Seq: 7, Msg: Msg{Node: 7}},
		{Type: FrameData, From: 2, To: 1, Seq: 1, Msg: Msg{Node: 99, Occ: "0.1.2"}},
		{Type: FrameData, From: 2, To: 1, Seq: 2, Msg: Msg{Node: -1, Tag: "x"}},
		{Type: FrameAck, From: 1, To: 2, Seq: 7},
		{Type: FramePeers, Peers: []Peer{{Place: 1, Addr: "a:1"}, {Place: 2, Addr: "b:2"}}},
		{Type: FrameReady},
		{Type: FrameStart, Seed: -12345, Mode: ModeReplay},
		{Type: FrameStep},
		{Type: FrameStepExact, Op: uint8(fsm.OpSend), TIndex: 4},
		{Type: FrameStepResult, Progressed: true, Done: false, Queued: 2,
			HasEvent: true, EventName: "read1", EventPlace: 1},
		{Type: FrameStepResult},
		{Type: FrameChoose, Offered: []ServicePrimitive{{Name: "read", Place: 1}, {Name: "write", Place: 2}}},
		{Type: FrameChooseReply, Choice: -1},
		{Type: FrameChooseReply, Choice: 1},
		{Type: FrameSeq, GlobalSeq: 41},
		{Type: FrameEnabled},
		{Type: FrameEnabledReport, Delta: true, RecvReady: true, SendTargets: []int{2, 3},
			QueueLens: []QueueLen{{From: 2, Len: 1}}},
		{Type: FrameHalt, Outcome: OutDeadlocked, Reason: "quiescent"},
		{Type: FrameError, ErrMsg: "boom"},
	}
}

// TestFrameRoundTrip encodes and decodes every frame type and requires the
// exact struct back.
func TestFrameRoundTrip(t *testing.T) {
	for _, f := range frameCases() {
		buf, err := f.Encode()
		if err != nil {
			t.Fatalf("%s: encode: %v", f.Type, err)
		}
		got, err := DecodeBody(buf[4:])
		if err != nil {
			t.Fatalf("%s: decode: %v", f.Type, err)
		}
		if !reflect.DeepEqual(f, got) {
			t.Errorf("%s: round trip diverges\n in:  %+v\n out: %+v", f.Type, f, got)
		}
	}
}

// TestFrameRoundTripStream round-trips frames through Write/ReadFrame over
// one stream.
func TestFrameRoundTripStream(t *testing.T) {
	var buf bytes.Buffer
	cases := frameCases()
	for _, f := range cases {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatalf("%s: write: %v", f.Type, err)
		}
	}
	for _, f := range cases {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("%s: read: %v", f.Type, err)
		}
		if !reflect.DeepEqual(f, got) {
			t.Errorf("%s: stream round trip diverges", f.Type)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Errorf("stream end: want io.EOF, got %v", err)
	}
}

// TestDecodeStrictness feeds malformed bodies and requires errors, never
// panics.
func TestDecodeStrictness(t *testing.T) {
	cases := map[string][]byte{
		"empty body":        {},
		"unknown type":      {0xEE},
		"truncated hello":   {byte(FrameHello), ProtocolVersion},
		"truncated data":    {byte(FrameData), 1},
		"oversized string":  append([]byte{byte(FrameError), 0xFF, 0xFF, 0x7F}, make([]byte, 10)...),
		"unknown msg flags": {byte(FrameData), 1, 2, 1, 0x80},
		"unknown conn kind": {byte(FrameHello), ProtocolVersion, 9, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		"unknown mode":      {byte(FrameStart), 0, 9},
		"choice range":      {byte(FrameChooseReply), 0xFF, 0xFF, 0xFF, 0x7F},
	}
	for name, body := range cases {
		if _, err := DecodeBody(body); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	// The retired interned-key bit of protocol version 2 is an unknown
	// message flag, not a key lookup.
	if _, err := DecodeBody([]byte{byte(FrameData), 1, 2, 1, 0x01, 0}); err == nil ||
		!strings.Contains(err.Error(), "message flags (unknown bits)") {
		t.Errorf("retired interned bit: want unknown message-flag bits, got %v", err)
	}
	// Trailing garbage after a valid frame is an error.
	buf, err := (&Frame{Type: FrameReady}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBody(append(buf[4:], 0)); err == nil ||
		!strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing garbage: want trailing-bytes error, got %v", err)
	}
}

// TestReadFrameBoundsAllocation requires that a corrupt length prefix is
// rejected before any body allocation.
func TestReadFrameBoundsAllocation(t *testing.T) {
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := ReadFrame(bytes.NewReader(huge)); err != ErrFrameTooLarge {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
}

// TestMsgOfMessage round-trips the medium payload extraction.
func TestMsgOfMessage(t *testing.T) {
	m := medium.Message{From: 1, To: 2, Node: 9, Occ: "0.1", Tag: ""}
	if got := MsgOf(m).Message(1, 2); got != m {
		t.Fatalf("payload round trip diverges: %+v != %+v", got, m)
	}
}

// FuzzWireCodec holds the decoder to its safety contract on arbitrary
// bytes — never panic, never over-allocate, and reject or round-trip: any
// body that decodes must re-encode and re-decode to the same frame.
func FuzzWireCodec(f *testing.F) {
	for _, fr := range frameCases() {
		buf, err := fr.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf[4:])
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x00, 0x01})
	f.Fuzz(func(t *testing.T, body []byte) {
		fr, err := DecodeBody(body)
		if err != nil {
			return
		}
		buf, err := fr.Encode()
		if err != nil {
			// A decoded frame must be encodable: decode is stricter than
			// encode for every type it accepts.
			t.Fatalf("decoded frame does not re-encode: %v (%+v)", err, fr)
		}
		again, err := DecodeBody(buf[4:])
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v (%+v)", err, fr)
		}
		if !reflect.DeepEqual(fr, again) {
			t.Fatalf("re-decode diverges\n first:  %+v\n second: %+v", fr, again)
		}
	})
}
