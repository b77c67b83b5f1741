package wire

import (
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
	want    string
}{
	{"other spec revision", ProtocolVersion, handshakeDigest + 1, "spec digest mismatch"},
	{"protocol version 2", 2, handshakeDigest, "protocol version 2"},
}

// sendHello dials addr and writes one Hello frame, keeping the connection
// open until the test ends so the peer reads the frame, not an EOF.
func sendHello(t *testing.T, addr string, hello *Frame) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := WriteFrame(conn, hello); err != nil {
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
			})
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
			})
			if err := coord.WaitEntities(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want %q error, got %v", tc.want, err)
			}
		})
	}
}
