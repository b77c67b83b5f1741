// Package lotos implements the specification language of the paper
// "Deriving Protocol Specifications from Service Specifications":
// a Basic-LOTOS dialect (Table 1 of the paper) used both for communication
// service specifications and for the derived protocol entity specifications.
//
// The package provides the abstract syntax tree, a lexer and recursive-descent
// parser for the concrete syntax, a pretty-printer whose output re-parses to
// an equivalent tree, and name-resolution utilities for process definitions.
//
// Two event vocabularies share one representation: service primitives such as
// "read1" (primitive "read" at service access point 1) appear in service
// specifications, while send/receive interactions such as "s2(7)" and
// "r1(s,7)" additionally appear in derived protocol entity specifications.
package lotos

import (
	"fmt"
	"strconv"
	"strings"
)

// EventKind discriminates the kinds of atomic actions of the language.
type EventKind uint8

const (
	// EvService is a service primitive interaction "name_place", e.g. "read1".
	EvService EventKind = iota
	// EvSend is a send_a_message interaction "s_j(s,N)": send message (s,N)
	// to the entity at place j.
	EvSend
	// EvRecv is a receive_a_message interaction "r_j(s,N)": receive message
	// (s,N) from the entity at place j.
	EvRecv
	// EvInternal is the unobservable internal action "i".
	EvInternal
)

// String returns a short human-readable kind name.
func (k EventKind) String() string {
	switch k {
	case EvService:
		return "service"
	case EvSend:
		return "send"
	case EvRecv:
		return "recv"
	case EvInternal:
		return "internal"
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// OccSymbolic is the symbolic process-occurrence parameter "s" used in the
// statically derived protocol texts (Section 3.5 of the paper). It stands for
// the occurrence number of the enclosing process instance and is replaced by
// a concrete occurrence path when the entity expression is unfolded.
const OccSymbolic = "s"

// OccRoot is the occurrence number of the top-level (implicit) process
// instance. The paper uses the default occurrence number "0" when the
// specification contains no explicitly defined process.
const OccRoot = "0"

// Event is an atomic action of the language.
//
// For EvService, Name and Place identify the primitive and its service
// access point. For EvSend/EvRecv, Place identifies the peer entity and the
// message is identified either by Node (the syntax-tree node number N that
// generated the synchronization, Section 4.1) together with Occ (the process
// occurrence number, Section 3.5), or — for hand-written specifications in
// the style of the paper's running examples — by a symbolic Tag such as "x".
type Event struct {
	Kind  EventKind
	Name  string // service primitive identifier (EvService only)
	Place int    // SAP of a service primitive; peer place of a send/receive
	Node  int    // message identification N(x); negative when Tag is used
	Tag   string // symbolic message tag (alternative to Node), e.g. "x"
	Occ   string // occurrence number: OccSymbolic, a concrete path, or ""
}

// ServiceEvent constructs a service primitive event such as "read1".
func ServiceEvent(name string, place int) Event {
	return Event{Kind: EvService, Name: name, Place: place}
}

// SendEvent constructs a send_a_message event s_to(s,node) with the symbolic
// occurrence parameter.
func SendEvent(to, node int) Event {
	return Event{Kind: EvSend, Place: to, Node: node, Occ: OccSymbolic}
}

// RecvEvent constructs a receive_a_message event r_from(s,node) with the
// symbolic occurrence parameter.
func RecvEvent(from, node int) Event {
	return Event{Kind: EvRecv, Place: from, Node: node, Occ: OccSymbolic}
}

// InternalEvent constructs the internal action "i".
func InternalEvent() Event { return Event{Kind: EvInternal} }

// IsMessage reports whether the event is a send or receive interaction.
func (e Event) IsMessage() bool { return e.Kind == EvSend || e.Kind == EvRecv }

// WithOcc returns a copy of the event with its occurrence parameter replaced.
// Events that carry no occurrence (service primitives, internal actions, and
// tagged messages) are returned unchanged.
func (e Event) WithOcc(occ string) Event {
	if !e.IsMessage() || e.Tag != "" {
		return e
	}
	e.Occ = occ
	return e
}

// msgPayload renders the parenthesized message identification of a send or
// receive event, mirroring the paper's notations s2(x), s2(7) and s2(s,7).
func (e Event) msgPayload() string {
	if e.Tag != "" {
		return e.Tag
	}
	switch e.Occ {
	case "", OccSymbolic:
		return strconv.Itoa(e.Node)
	default:
		return "#" + e.Occ + "," + strconv.Itoa(e.Node)
	}
}

// String renders the event in the concrete syntax accepted by the parser.
func (e Event) String() string {
	switch e.Kind {
	case EvInternal:
		return "i"
	case EvService:
		return e.Name + strconv.Itoa(e.Place)
	case EvSend:
		return "s" + strconv.Itoa(e.Place) + "(" + e.msgPayload() + ")"
	case EvRecv:
		return "r" + strconv.Itoa(e.Place) + "(" + e.msgPayload() + ")"
	}
	return "?"
}

// RawID returns the bare event identifier as it appears in synchronization
// gate sets of the "|[event_subset]|" operator: the name and place of a
// service primitive, e.g. "a2". Message and internal events have no raw
// identifier and return "".
func (e Event) RawID() string {
	if e.Kind != EvService {
		return ""
	}
	return e.Name + strconv.Itoa(e.Place)
}

// Gate returns a canonical key identifying the interaction "gate" of the
// event for synchronization matching and for labelled-transition-system
// labels. Two events synchronize under full synchronization exactly when
// their gates are equal. The internal action has no gate.
func (e Event) Gate() string {
	var buf [64]byte
	return string(e.AppendGate(buf[:0]))
}

// AppendGate appends the event's Gate key to dst, so a caller holding a
// scratch buffer can look the key up without allocating it.
func (e Event) AppendGate(dst []byte) []byte {
	switch e.Kind {
	case EvService:
		dst = append(dst, e.Name...)
		dst = append(dst, '@')
		return strconv.AppendInt(dst, int64(e.Place), 10)
	case EvSend, EvRecv:
		dir := "s@"
		if e.Kind == EvRecv {
			dir = "r@"
		}
		dst = append(dst, dir...)
		dst = strconv.AppendInt(dst, int64(e.Place), 10)
		dst = append(dst, ':')
		if e.Tag != "" {
			dst = append(dst, 't')
			return append(dst, e.Tag...)
		}
		dst = strconv.AppendInt(dst, int64(e.Node), 10)
		dst = append(dst, '#')
		return append(dst, e.Occ...)
	}
	return dst
}

// SameMessage reports whether two message events denote the same message
// content, ignoring direction and peer (used when matching a send s_j^i(m)
// with the corresponding receive r_i^j(m) across entities).
func (e Event) SameMessage(o Event) bool {
	if !e.IsMessage() || !o.IsMessage() {
		return false
	}
	if e.Tag != "" || o.Tag != "" {
		return e.Tag == o.Tag
	}
	return e.Node == o.Node && e.Occ == o.Occ
}

// ParseEventID parses a bare event identifier such as "read1" or "a12" into
// a service event. The trailing run of decimal digits is the place; the
// non-empty prefix before it is the primitive name.
func ParseEventID(id string) (Event, error) {
	cut := len(id)
	for cut > 0 && id[cut-1] >= '0' && id[cut-1] <= '9' {
		cut--
	}
	if cut == len(id) {
		return Event{}, fmt.Errorf("event identifier %q has no trailing place digits", id)
	}
	if cut == 0 {
		return Event{}, fmt.Errorf("event identifier %q has no primitive name", id)
	}
	place, err := strconv.Atoi(id[cut:])
	if err != nil {
		return Event{}, fmt.Errorf("event identifier %q: bad place: %w", id, err)
	}
	return ServiceEvent(id[:cut], place), nil
}

// FormatGateSet renders a gate list for the "|[ ... ]|" operator.
func FormatGateSet(gates []string) string {
	return strings.Join(gates, ",")
}
