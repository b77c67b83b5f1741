package compose

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
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
			local:    [][]localState{{{}}, {{}}},
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
func binaryKey(sys *System, g *gstate) string {
	return sys.key(g)
}

// decodeKey decodes a state key of sys into the state's content, so that
// two graphs over different tables can be compared state by state: unlike
// the key bytes, the content does not depend on the order in which the
// table interned local states, column forms and messages. An identity key
// decodes to each place's canonical local state key (its quotient class's,
// over a compositional table), then each non-empty channel's slot and
// queued messages. An orbit key decodes to one line per column, listing
// its renamed canonical form at each place and its queue footprint
// (channel, position and renamed message), with the columns sorted by
// that rendering, then the positions of the shared messages.
func decodeKey(t testing.TB, sys *System, key string) string {
	t.Helper()
	if key == "" || key[0] != identityTag && key[0] != orbitTag {
		t.Fatalf("key %x: unknown tag", key)
	}
	b := []byte(key[1:])
	next := func() int {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			t.Fatalf("key %x: truncated uvarint", key)
		}
		b = b[n:]
		return int(v)
	}
	sys.mu.RLock()
	defer sys.mu.RUnlock()
	msg := func(id int) string {
		m := sys.msgs[id]
		return fmt.Sprintf("%d/%q/%q", m.Node, m.Occ, m.Tag)
	}
	var out strings.Builder
	if key[0] == orbitTag {
		forms := make([]string, len(sys.colIDs))
		for form, id := range sys.colIDs {
			forms[id] = form
		}
		cols := make([]strings.Builder, sys.sym.k)
		for _, p := range sys.Places {
			for c := range cols {
				fmt.Fprintf(&cols[c], " place %d: %s;", p, forms[next()])
			}
		}
		var shared strings.Builder
		for len(b) > 0 {
			slot, n := next()-1, next()
			for pos := 0; pos < n; pos++ {
				w := &shared
				if c := next(); c > 0 {
					w = &cols[c-1]
				}
				fmt.Fprintf(w, " channel %d position %d: %s;", slot, pos, msg(next()))
			}
		}
		lines := make([]string, len(cols))
		for c := range cols {
			lines[c] = "column" + cols[c].String() + "\n"
		}
		slices.Sort(lines)
		return "orbit\n" + strings.Join(lines, "") + "shared" + shared.String() + "\n"
	}
	for idx, p := range sys.Places {
		id := int32(next())
		var local string
		if min := sys.min[idx]; min != nil {
			local = min.Keys[id]
		} else {
			fs, _ := sys.machines[idx].State(id)
			local = fs.Key()
		}
		fmt.Fprintf(&out, "place %d: %s\n", p, local)
	}
	for len(b) > 0 {
		slot, n := next()-1, next()
		fmt.Fprintf(&out, "channel %d:", slot)
		for ; n > 0; n-- {
			fmt.Fprintf(&out, " %s", msg(next()))
		}
		out.WriteString("\n")
	}
	return out.String()
}

// decodedStates decodes every state key of a graph over sys, in state
// order.
func decodedStates(t testing.TB, sys *System, g *lts.Graph) []string {
	t.Helper()
	out := make([]string, len(g.Keys))
	for i, k := range g.Keys {
		out[i] = decodeKey(t, sys, k)
	}
	return out
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

// TestWarmTableMatchesFresh checks the property a shared table depends
// on: keys pack interned ids, so their bytes follow the order in which the
// table interned local states, column forms and messages, but the product
// explored over a table that an earlier, different exploration filled is
// the product explored over a fresh table — edges, depths, frontier and the
// decoded content of every state number. The symmetric case checks it for
// orbit keys, whose canonical column order follows the ids too.
func TestWarmTableMatchesFresh(t *testing.T) {
	cases := []struct {
		name, src string
		red       Reductions
	}{
		{"barrier/por", "SPEC (a1; s4; exit ||| b2; s4; exit ||| c3; s4; exit) |[s4]| s4; d4; exit ENDSPEC", 0},
		{"relay3/por+symmetry", relaySrc(3), RedPOR.With(RedSymmetry)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := mustDerive(t, c.src)
			lim := lts.Limits{MaxStates: 100000}
			v := NewVerifier(nil, d.Entities, nil)
			// The earlier exploration walks the duplicating medium at
			// capacity 2 depth first, always taking the last move, so it
			// interns local states and messages in another order than the
			// reliable BFS does.
			first, err := v.system(Config{ChannelCap: 2, Faults: FaultModel{Duplication: true}, Limits: lim}, RedNone)
			if err != nil {
				t.Fatal(err)
			}
			for g, steps := first.rootState(), 0; steps < 64; steps++ {
				out, _, err := first.derive(g, nil, false)
				if err != nil {
					t.Fatal(err)
				}
				if len(out) == 0 {
					break
				}
				g = out[len(out)-1].To.(*gstate)
			}
			cfg := Config{Limits: lim, Reductions: c.red}
			warm, err := v.system(cfg, cfg.effectiveReductions())
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := New(d.Entities, cfg)
			if err != nil {
				t.Fatal(err)
			}
			gw, err := warm.Explore()
			if err != nil {
				t.Fatal(err)
			}
			gf, err := fresh.Explore()
			if err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(gw.Keys, gf.Keys) {
				t.Fatal("test broken: the warm table interned in the fresh table's order")
			}
			if !reflect.DeepEqual(gw.Edges, gf.Edges) || !reflect.DeepEqual(gw.ObsDepth, gf.ObsDepth) ||
				!reflect.DeepEqual(gw.Frontier, gf.Frontier) {
				t.Errorf("warm graph differs from fresh: %d/%d vs %d/%d states/transitions",
					gw.NumStates(), gw.NumTransitions(), gf.NumStates(), gf.NumTransitions())
			}
			if !reflect.DeepEqual(decodedStates(t, warm, gw), decodedStates(t, fresh, gf)) {
				t.Error("warm and fresh graphs number different states alike")
			}
		})
	}
}

// TestKeyBytesPinned pins the key bytes of two small products: a symmetric
// one (orbit keys) and a faulty one (identity keys over loss moves),
// each explored serially over a fresh table, whose interning order is then
// fixed. The digest covers Graph.Keys in state order, so it fixes the key
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
			"f6dc20f3aaff1d49c1285dbd14b55ab9ebad0da4645ba75ab89db9b00e8636c1"},
		{"barrier/cap1/loss", "SPEC (a1; s4; exit ||| b2; s4; exit ||| c3; s4; exit) |[s4]| s4; d4; exit ENDSPEC",
			Config{ChannelCap: 1, Faults: FaultModel{Loss: true}}, 432,
			"acd493974a62549fa1aa1b63765cbd2a6b875dbadc1881c9a12942410d6ac4c1"},
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
