package wire

import (
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/fsm"
	"repro/internal/lotos"
)

// MsgTable interns the message identifications of a derived protocol: every
// (node, occurrence) or tag payload that can cross a channel, enumerated in
// a canonical order so every deployment process — each derives and compiles
// the same service specification independently — builds the same table and
// the same key assignment. The table digest travels in Hello frames; a
// mismatch (different spec revision, different compile cap) fails the
// handshake instead of silently mis-decoding frames.
//
// The table is the union of the message alphabets of the entities whose
// minimized layer closes under the state cap. The others (the
// unbounded-recursion shapes) have an unbounded message alphabet: message
// occurrence paths are stamped as process instances are created
// (lts.Env.Instantiate), so a recursive entity's messages cannot be read
// off its syntax either. Their messages miss the table and travel in the
// codec's verbose encoding. Both sides agree on the table regardless,
// because whether an exploration closes under a cap is deterministic.
type MsgTable struct {
	labels []Msg
	index  map[Msg]int
	digest uint64
}

// TableFromFleet builds the interning table from an entity fleet: the union
// of the send/receive alphabets of every machine's minimized layer,
// deduplicated and sorted canonically. Machines whose minimized layer
// exceeds the cap contribute nothing.
func TableFromFleet(fleet *fsm.Fleet) *MsgTable {
	set := map[Msg]bool{}
	places := make([]int, 0, len(fleet.Machines))
	for p := range fleet.Machines {
		places = append(places, p)
	}
	sort.Ints(places)
	for _, p := range places {
		m, err := fleet.Machines[p].Minimized()
		if err != nil {
			continue
		}
		for i, op := range m.Ops {
			if op != fsm.OpSend && op != fsm.OpRecv && op != fsm.OpRecvFlush {
				continue
			}
			ev := m.Events[i]
			set[Msg{Node: ev.Node, Occ: ev.Occ, Tag: ev.Tag}] = true
		}
	}
	labels := make([]Msg, 0, len(set))
	for m := range set {
		labels = append(labels, m)
	}
	sort.Slice(labels, func(i, j int) bool {
		a, b := labels[i], labels[j]
		if a.Tag != b.Tag {
			return a.Tag < b.Tag
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Occ < b.Occ
	})
	t := &MsgTable{labels: labels, index: make(map[Msg]int, len(labels))}
	h := fnv.New64a()
	for key, m := range labels {
		t.index[m] = key
		fmt.Fprintf(h, "%d\x00%s\x00%s\x1f", m.Node, m.Occ, m.Tag)
	}
	t.digest = h.Sum64()
	return t
}

// TableForEntities builds the entities' machines (at the given state cap; 0
// means the fsm default) and their table. It is the one-call form used by
// deployment processes.
func TableForEntities(entities map[int]*lotos.Spec, maxStates int) *MsgTable {
	return TableFromFleet(fsm.CompileEntities(entities, fsm.Config{MaxStates: maxStates}))
}

// Key returns the interned key of a message payload.
func (t *MsgTable) Key(m Msg) (int, bool) {
	key, ok := t.index[m]
	return key, ok
}

// Lookup resolves an interned key.
func (t *MsgTable) Lookup(key int) (Msg, bool) {
	if key < 0 || key >= len(t.labels) {
		return Msg{}, false
	}
	return t.labels[key], true
}

// Len returns the number of interned messages.
func (t *MsgTable) Len() int { return len(t.labels) }

// Digest returns the canonical table digest (FNV-1a 64 over the sorted
// entries), exchanged in Hello frames.
func (t *MsgTable) Digest() uint64 {
	if t == nil {
		return 0
	}
	return t.digest
}
