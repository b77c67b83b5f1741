package wire

import (
	"encoding/binary"
	"net"
	"strings"
	"testing"
	"time"
)

// handshakeDigest is the spec revision of the deployment under test.
const handshakeDigest = 0x5eed

// foreignHellos are the handshakes a deployment of spec revision
// handshakeDigest must refuse, with the error each must name.
var foreignHellos = []struct {
	name    string
	version uint8
	digest  uint64
	// v2Layout encodes the Hello as protocol version 2 did, with an 8-byte
	// message-table digest after the spec digest.
	v2Layout bool
	want     string
}{
	{"other spec revision", ProtocolVersion, handshakeDigest + 1, false, "spec digest mismatch"},
	{"protocol version 2", 2, handshakeDigest, false, "protocol version 2"},
	{"genuine protocol version 2", 2, handshakeDigest, true, "protocol version 2"},
}

// sendHello dials addr and writes one Hello frame, keeping the connection
// open until the test ends so the peer reads the frame, not an EOF.
func sendHello(t *testing.T, addr string, hello *Frame, v2Layout bool) {
	t.Helper()
	buf, err := hello.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if v2Layout {
		e := &encoder{buf: make([]byte, 4, 64)}
		e.u8(uint8(FrameHello))
		e.u8(hello.Version)
		e.u8(uint8(hello.Kind))
		e.uint(hello.Place)
		e.u64(hello.SpecDigest)
		e.u64(0x7ab1e) // the message-table digest
		e.str(hello.Addr)
		binary.BigEndian.PutUint32(e.buf[:4], uint32(len(e.buf)-4))
		buf = e.buf
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
}

// TestEndpointRejectsForeignHello requires an endpoint to refuse a data
// connection from a peer of another spec revision or protocol version.
func TestEndpointRejectsForeignHello(t *testing.T) {
	for _, tc := range foreignHellos {
		t.Run(tc.name, func(t *testing.T) {
			ep, err := NewEndpoint(EndpointConfig{Place: 2, Listen: "127.0.0.1:0", SpecDigest: handshakeDigest})
			if err != nil {
				t.Fatal(err)
			}
			defer ep.Close()
			sendHello(t, ep.Addr(), &Frame{
				Type: FrameHello, Version: tc.version, Kind: ConnData, Place: 1, SpecDigest: tc.digest,
			}, tc.v2Layout)
			// Place 2 accepts the connection of the lower place 1.
			err = ep.EstablishMesh([]Peer{{Place: 1, Addr: "unused"}, {Place: 2, Addr: ep.Addr()}})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want %q error, got %v", tc.want, err)
			}
		})
	}
}

// TestCoordinatorRejectsForeignHello requires the coordinator to refuse an
// entity of another spec revision or protocol version.
func TestCoordinatorRejectsForeignHello(t *testing.T) {
	for _, tc := range foreignHellos {
		t.Run(tc.name, func(t *testing.T) {
			coord, err := NewCoordinator(CoordinatorConfig{
				N: 1, SpecDigest: handshakeDigest, Listen: "127.0.0.1:0", Timeout: 5 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			sendHello(t, coord.Addr(), &Frame{
				Type: FrameHello, Version: tc.version, Kind: ConnControl, Place: 1,
				SpecDigest: tc.digest, Addr: "127.0.0.1:1",
			}, tc.v2Layout)
			if err := coord.WaitEntities(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want %q error, got %v", tc.want, err)
			}
		})
	}
}
