package compose

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"

	"repro/internal/lts"
)

// testSystem builds a bare System with two places and hand-planted local
// states, for white-box key-encoding tests.
func testSystem() *System {
	sys := &System{
		Places: []int{1, 2},
		table: &table{
			placeIdx: map[int]int{1: 0, 2: 1},
			msgIDs:   map[message]int32{},
			local: [][]localState{
				{{sum: digest16([]byte("entity1-state0"))}},
				{{sum: digest16([]byte("entity2-state0"))}},
			},
		},
	}
	return sys
}

// gstateWith builds a two-place global state with the given queue on the
// channel 1->2 (slot 0*2+1 = 1).
func gstateWith(queue ...int32) *gstate {
	return packState([]int32{0, 0}, [][]int32{nil, queue, nil, nil})
}

// binaryKey is the identity key of a state of a test system.
func binaryKey(sys *System, g *gstate) [16]byte {
	return sys.binaryKeyLocked(*g, new(keyScratch))
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
			if ka, kb := binaryKey(sys, c.a), binaryKey(sys, c.b); ka == kb {
				t.Errorf("binary keys collide: %x", ka)
			}
		})
	}

	// Sanity: independently built but equal states share keys.
	if binaryKey(sys, gstateWith(tagA)) != binaryKey(sys, gstateWith(tagA)) {
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
	onSlot2 := packState([]int32{0, 0}, [][]int32{nil, nil, {tagA}, nil}) // channel 2->1
	if binaryKey(sys, onSlot1) == binaryKey(sys, onSlot2) {
		t.Error("binary key ignores channel slot")
	}

	empty := gstateWith()
	if binaryKey(sys, onSlot1) == binaryKey(sys, empty) {
		t.Error("binary key ignores queue contents")
	}

	// Same multiset of messages split differently across two slots.
	split1 := packState([]int32{0, 0}, [][]int32{nil, {tagA, tagA}, nil, nil})
	split2 := packState([]int32{0, 0}, [][]int32{nil, {tagA}, {tagA}, nil})
	if binaryKey(sys, split1) == binaryKey(sys, split2) {
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
	ka := binaryKey(sysA, gstateWith(a1, a2))
	kb := binaryKey(sysB, gstateWith(b1, b2))
	if ka != kb {
		t.Errorf("binary keys depend on interning order: %x vs %x", ka, kb)
	}
}

// TestKeyBytesPinned pins the key bytes of two small products: a symmetric
// one (canonical keys) and a faulty one (identity keys over loss moves).
// The digest covers Graph.Keys in state order, so it fixes the key
// encoding and the state numbering together; spill-run order and the
// witness extraction's key matching depend on both.
func TestKeyBytesPinned(t *testing.T) {
	cases := []struct {
		name   string
		src    string
		cfg    Config
		states int
		digest string
	}{
		{"relay3/por+symmetry", relaySrc(3), Config{Reductions: RedPOR.With(RedSymmetry)}, 484,
			"a078278b3fd62f01b000cf2184884cb6179789eac1d673f71c4b64c2ce7c9a8d"},
		{"barrier/cap1/loss", "SPEC (a1; s4; exit ||| b2; s4; exit ||| c3; s4; exit) |[s4]| s4; d4; exit ENDSPEC",
			Config{ChannelCap: 1, Faults: FaultModel{Loss: true}}, 432,
			"c34a658269988bbefde1ecf06d6df325d56e62a00d08dfc34a343fd6f552157c"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.cfg.Limits = lts.Limits{MaxStates: 100000}
			_, g := exploreSrc(t, c.src, c.cfg)
			h := sha256.New()
			for _, k := range g.Keys {
				io.WriteString(h, k)
			}
			if got := hex.EncodeToString(h.Sum(nil)); g.NumStates() != c.states || got != c.digest {
				t.Errorf("%d states, keys digest %s; want %d states, digest %s", g.NumStates(), got, c.states, c.digest)
			}
		})
	}
}
