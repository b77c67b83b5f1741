package wire

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fsm"
	"repro/internal/lotos"
	"repro/internal/medium"
)

// testTable builds a small interning table from a hand-made fleet-like
// alphabet by compiling a tiny derived corpus member would drag in the
// whole derivation; instead, exercise TableFromFleet on a machine built by
// the compiler from a minimal two-place spec.
func testTable(t testing.TB) *MsgTable {
	ent, err := lotos.Parse(`SPEC a1; s2(7); r2(9); exit ENDSPEC`)
	if err != nil {
		t.Fatalf("parse entity: %v", err)
	}
	fleet := fsm.CompileEntities(map[int]*lotos.Spec{1: ent}, fsm.Config{})
	if fleet.Machines[1] == nil {
		t.Fatalf("entity failed to compile: %v", fleet.Errors[1])
	}
	return TableFromFleet(fleet)
}

// frameCases enumerates one representative frame per type.
func frameCases(table *MsgTable) []*Frame {
	var interned Msg
	if table.Len() > 0 {
		interned, _ = table.Lookup(0)
	}
	return []*Frame{
		{Type: FrameHello, Version: ProtocolVersion, Kind: ConnControl, Place: 3,
			SpecDigest: 0xdeadbeef, TableDigest: table.Digest(), Addr: "127.0.0.1:4242"},
		{Type: FrameData, From: 1, To: 2, Seq: 7, Msg: interned},
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
	table := testTable(t)
	for _, f := range frameCases(table) {
		buf, err := f.Encode(table)
		if err != nil {
			t.Fatalf("%s: encode: %v", f.Type, err)
		}
		got, err := DecodeBody(buf[4:], table)
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
	table := testTable(t)
	var buf bytes.Buffer
	cases := frameCases(table)
	for _, f := range cases {
		if err := WriteFrame(&buf, f, table); err != nil {
			t.Fatalf("%s: write: %v", f.Type, err)
		}
	}
	for _, f := range cases {
		got, err := ReadFrame(&buf, table)
		if err != nil {
			t.Fatalf("%s: read: %v", f.Type, err)
		}
		if !reflect.DeepEqual(f, got) {
			t.Errorf("%s: stream round trip diverges", f.Type)
		}
	}
	if _, err := ReadFrame(&buf, table); err != io.EOF {
		t.Errorf("stream end: want io.EOF, got %v", err)
	}
}

// TestDecodeStrictness feeds malformed bodies and requires errors, never
// panics.
func TestDecodeStrictness(t *testing.T) {
	table := testTable(t)
	cases := map[string][]byte{
		"empty body":        {},
		"unknown type":      {0xEE},
		"truncated hello":   {byte(FrameHello), 1},
		"truncated data":    {byte(FrameData), 1},
		"oversized string":  append([]byte{byte(FrameError), 0xFF, 0xFF, 0x7F}, make([]byte, 10)...),
		"unknown msg flags": {byte(FrameData), 1, 2, 1, 0x80},
		"bad msg key":       {byte(FrameData), 1, 2, 1, msgInterned, 0xF0},
		"unknown conn kind": {byte(FrameHello), 1, 9, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		"unknown mode":      {byte(FrameStart), 0, 9},
		"choice range":      {byte(FrameChooseReply), 0xFF, 0xFF, 0xFF, 0x7F},
	}
	for name, body := range cases {
		if _, err := DecodeBody(body, table); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	// Trailing garbage after a valid frame is an error.
	buf, err := (&Frame{Type: FrameReady}).Encode(table)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBody(append(buf[4:], 0), table); err == nil ||
		!strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing garbage: want trailing-bytes error, got %v", err)
	}
}

// TestReadFrameBoundsAllocation requires that a corrupt length prefix is
// rejected before any body allocation.
func TestReadFrameBoundsAllocation(t *testing.T) {
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := ReadFrame(bytes.NewReader(huge), nil); err != ErrFrameTooLarge {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
}

// TestInternedVersusVerbose checks that a table round-trips its own entries
// interned and everything else verbose, and that an interned frame decoded
// without a table errors instead of guessing.
func TestInternedVersusVerbose(t *testing.T) {
	table := testTable(t)
	if table.Len() == 0 {
		t.Fatal("test table is empty")
	}
	m, _ := table.Lookup(0)
	f := &Frame{Type: FrameData, From: 1, To: 2, Seq: 1, Msg: m}
	buf, err := f.Encode(table)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBody(buf[4:], nil); err == nil {
		t.Error("interned frame decoded without a table")
	}
	// Verbose encoding survives a nil table on both sides.
	v := &Frame{Type: FrameData, From: 1, To: 2, Seq: 1, Msg: Msg{Node: 7, Occ: "0"}}
	buf, err = v.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBody(buf[4:], nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v, got) {
		t.Errorf("verbose round trip diverges: %+v != %+v", v, got)
	}
}

// TestTableDeterminism requires that independently built tables agree
// (places iterated in any order) — the digest handshake depends on it.
func TestTableDeterminism(t *testing.T) {
	ent, err := lotos.Parse(`SPEC a1; s2(7); r2(9); exit ENDSPEC`)
	if err != nil {
		t.Fatal(err)
	}
	ent2, err := lotos.Parse(`SPEC b2; s1(3); r1(7); exit ENDSPEC`)
	if err != nil {
		t.Fatal(err)
	}
	entities := map[int]*lotos.Spec{1: ent, 2: ent2}
	a := TableForEntities(entities, 0)
	b := TableForEntities(entities, 0)
	if a.Digest() != b.Digest() || a.Len() != b.Len() {
		t.Fatalf("tables diverge: %016x/%d vs %016x/%d", a.Digest(), a.Len(), b.Digest(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		ma, _ := a.Lookup(i)
		mb, _ := b.Lookup(i)
		if ma != mb {
			t.Fatalf("key %d diverges: %+v vs %+v", i, ma, mb)
		}
	}
	if (&MsgTable{}).Digest() == a.Digest() {
		t.Error("non-empty table digests like the empty table")
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
	table := testTable(f)
	for _, fr := range frameCases(table) {
		buf, err := fr.Encode(table)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf[4:])
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x00, 0x01})
	f.Fuzz(func(t *testing.T, body []byte) {
		fr, err := DecodeBody(body, table)
		if err != nil {
			return
		}
		buf, err := fr.Encode(table)
		if err != nil {
			// A decoded frame must be encodable: decode is stricter than
			// encode for every type it accepts.
			t.Fatalf("decoded frame does not re-encode: %v (%+v)", err, fr)
		}
		again, err := DecodeBody(buf[4:], table)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v (%+v)", err, fr)
		}
		if !reflect.DeepEqual(fr, again) {
			t.Fatalf("re-decode diverges\n first:  %+v\n second: %+v", fr, again)
		}
	})
}
