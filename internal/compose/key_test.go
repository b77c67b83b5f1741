package compose

import "testing"

// testSystem builds a bare System with two places and hand-planted local
// states, for white-box key-encoding tests.
func testSystem() *System {
	sys := &System{
		Places:   []int{1, 2},
		placeIdx: map[int]int{1: 0, 2: 1},
		msgIDs:   map[message]int32{},
		intern:   []map[string]int32{{}, {}},
		local: [][]localState{
			{{sum: digest16([]byte("entity1-state0"))}},
			{{sum: digest16([]byte("entity2-state0"))}},
		},
	}
	return sys
}

// gstateWith builds a two-place global state with the given queue on the
// channel 1->2 (slot 0*2+1 = 1).
func gstateWith(queue ...int32) *gstate {
	g := &gstate{locals: []int32{0, 0}, chans: make([][]int32, 4)}
	g.chans[1] = queue
	return g
}

// TestKeyEncodingCollisions pins the fix for the historical key/message
// encoding ambiguities: the old rendering joined messages with "," and
// printed node messages as "node#occ", so a symbolic tag shaped like "7#0"
// collided with the node-7/occurrence-"0" message, and a tag containing a
// separator ("a,b") collided with two adjacent messages "a","b". The binary
// keys must keep all of these states distinct.
func TestKeyEncodingCollisions(t *testing.T) {
	sys := testSystem()
	tagLikeNode := sys.msgIDLocked(message{Tag: "7#0"})
	nodeMsg := sys.msgIDLocked(message{Node: 7, Occ: "0"})
	tagWithSep := sys.msgIDLocked(message{Tag: "a,b"})
	tagA := sys.msgIDLocked(message{Tag: "a"})
	tagB := sys.msgIDLocked(message{Tag: "b"})

	cases := []struct {
		name string
		a, b *gstate
	}{
		{"tag shaped like node#occ", gstateWith(tagLikeNode), gstateWith(nodeMsg)},
		{"tag containing separator", gstateWith(tagWithSep), gstateWith(tagA, tagB)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if ka, kb := sys.binaryKeyLocked(c.a), sys.binaryKeyLocked(c.b); ka == kb {
				t.Errorf("binary keys collide: %x", ka)
			}
		})
	}

	// Sanity: independently built but equal states share keys.
	if sys.binaryKeyLocked(gstateWith(tagA)) != sys.binaryKeyLocked(gstateWith(tagA)) {
		t.Error("equal states got distinct binary keys")
	}
}

// TestKeySlotAndLengthFraming checks the remaining dimensions of the
// encoding: which slot holds a queue, and how a queue splits across
// slots, must always be part of the key.
func TestKeySlotAndLengthFraming(t *testing.T) {
	sys := testSystem()
	tagA := sys.msgIDLocked(message{Tag: "a"})

	onSlot1 := gstateWith(tagA)
	onSlot2 := &gstate{locals: []int32{0, 0}, chans: make([][]int32, 4)}
	onSlot2.chans[2] = []int32{tagA} // channel 2->1
	if sys.binaryKeyLocked(onSlot1) == sys.binaryKeyLocked(onSlot2) {
		t.Error("binary key ignores channel slot")
	}

	empty := gstateWith()
	if sys.binaryKeyLocked(onSlot1) == sys.binaryKeyLocked(empty) {
		t.Error("binary key ignores queue contents")
	}

	// Same multiset of messages split differently across two slots.
	split1 := &gstate{locals: []int32{0, 0}, chans: make([][]int32, 4)}
	split1.chans[1] = []int32{tagA, tagA}
	split2 := &gstate{locals: []int32{0, 0}, chans: make([][]int32, 4)}
	split2.chans[1] = []int32{tagA}
	split2.chans[2] = []int32{tagA}
	if sys.binaryKeyLocked(split1) == sys.binaryKeyLocked(split2) {
		t.Error("binary key ignores how messages distribute over channels")
	}
}

// TestBinaryKeyContentDerived checks the property parallel derivation
// depends on: binary keys are derived from content only, so two System
// instances that interned the same messages in DIFFERENT orders still
// assign equal keys to equal global states.
func TestBinaryKeyContentDerived(t *testing.T) {
	sysA, sysB := testSystem(), testSystem()
	// Interning order differs: ids swap between the two systems.
	a1, a2 := sysA.msgIDLocked(message{Tag: "x"}), sysA.msgIDLocked(message{Node: 3, Occ: "0/1"})
	b2, b1 := sysB.msgIDLocked(message{Node: 3, Occ: "0/1"}), sysB.msgIDLocked(message{Tag: "x"})
	if a1 == b1 && a2 == b2 {
		t.Fatal("test broken: interning orders coincide")
	}
	ka := sysA.binaryKeyLocked(gstateWith(a1, a2))
	kb := sysB.binaryKeyLocked(gstateWith(b1, b2))
	if ka != kb {
		t.Errorf("binary keys depend on interning order: %x vs %x", ka, kb)
	}
}
