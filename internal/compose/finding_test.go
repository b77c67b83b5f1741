package compose

import (
	"testing"

	"repro/internal/core"
	"repro/internal/lotos"
	"repro/internal/lts"
)

// TestE11_RelInterruptRaceDeadlock documents a reproduction finding about
// the paper's distributed disabling implementation (Section 3.3), observed
// on the paper's own Example 3.
//
// The derived entity for an ending place p of the normal part has the form
//
//	( T_p(e1) >> Rel_p(e1) ) [> T_p(Mc)
//
// so the disabling event stays enabled until the left side's successful
// termination — in particular AFTER the Rel termination barrier has been
// broadcast. When the interrupting place first broadcasts Rel and then
// executes the disabling event, a receiving place q gets BOTH the Rel
// message and the interrupt message on the same FIFO channel, in that
// order. If q's normal part can no longer progress (e.g. it waits for a
// message from an entity that already took the interrupt), q's Rel receive
// is unreachable and the interrupt message is stuck behind the Rel message
// at the head of the queue: a genuine deadlock, independent of channel
// capacity. Restrictions R2/R3 do not prevent it.
//
// The test pins the behaviour: the deadlock exists for Example 3 at every
// capacity, always with a Rel message blocking the channel, and disappears
// when the disabling operator is removed from the service.
func TestE11_RelInterruptRaceDeadlock(t *testing.T) {
	src := `
SPEC S [> interrupt3; exit WHERE
  PROC S = (read1; push2; S >> pop2; write3; exit)
        [] (eof1; make3; exit)
  END
ENDSPEC`
	d, err := core.Derive(lotos.MustParse(src), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, capacity := range []int{1, 2, 4} {
		sys, err := New(d.Entities, Config{
			ChannelCap: capacity,
			Limits:     lts.Limits{MaxObsDepth: 5, MaxStates: 400000},
		})
		if err != nil {
			t.Fatal(err)
		}
		g, err := sys.Explore()
		if err != nil {
			t.Fatal(err)
		}
		dls := g.Deadlocks()
		if len(dls) == 0 {
			t.Errorf("cap=%d: expected the Rel/interrupt race deadlock, found none "+
				"(did the disabling implementation change?)", capacity)
			continue
		}
		// Every deadlocked state has a non-empty channel (a message stuck
		// behind the FIFO head); at capacity >= 2 the canonical witness has
		// the interrupt message queued behind the Rel message.
		for _, s := range dls {
			st := stateOf(t, sys, g, s)
			queued := false
			for _, q := range st.chans {
				queued = queued || len(q) > 0
			}
			if !queued {
				t.Errorf("cap=%d: deadlock state %d has empty channels", capacity, s)
			}
		}
	}

	// Control: the same service without "[>" has no deadlock.
	ctrl := `
SPEC S WHERE
  PROC S = (read1; push2; S >> pop2; write3; exit)
        [] (eof1; make3; exit)
  END
ENDSPEC`
	dc, err := core.Derive(lotos.MustParse(ctrl), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(dc.Entities, Config{ChannelCap: 1, Limits: lts.Limits{MaxObsDepth: 5, MaxStates: 400000}})
	if err != nil {
		t.Fatal(err)
	}
	g, err := sys.Explore()
	if err != nil {
		t.Fatal(err)
	}
	if dl := g.Deadlocks(); len(dl) != 0 {
		t.Errorf("control without [> deadlocks: %d", len(dl))
	}
}

// stateOf recovers the global state behind a graph state: it walks a
// shortest path to it from the initial state, re-deriving each step.
func stateOf(t *testing.T, sys *System, g *lts.Graph, target int) *gstate {
	t.Helper()
	path, ok := g.ShortestPathTo(func(s int) bool { return s == target })
	if !ok {
		t.Fatalf("state %d unreachable", target)
	}
	cur := sys.rootState()
	for _, ps := range path {
		trans, _, err := sys.derive(cur, false)
		if err != nil {
			t.Fatal(err)
		}
		var next *gstate
		for _, tr := range trans {
			if tr.Key == g.Keys[ps.Edge.To] {
				next = tr.To.(*gstate)
				break
			}
		}
		if next == nil {
			t.Fatalf("no derived transition reaches state %d", ps.Edge.To)
		}
		cur = next
	}
	return cur
}

// TestE11_LinearDisableHasNoDeadlock shows the race needs the interrupting
// place to also be an ending place reached through work that other places
// gate: the paper's simple Example 6 shape stays deadlock-free.
func TestE11_LinearDisableHasNoDeadlock(t *testing.T) {
	d, err := core.Derive(lotos.MustParse("SPEC a1; b2; c3; exit [> d3; exit ENDSPEC"), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, capacity := range []int{1, 3} {
		sys, err := New(d.Entities, Config{ChannelCap: capacity, Limits: lts.Limits{MaxObsDepth: 6}})
		if err != nil {
			t.Fatal(err)
		}
		g, err := sys.Explore()
		if err != nil {
			t.Fatal(err)
		}
		if dl := g.Deadlocks(); len(dl) != 0 {
			t.Errorf("cap=%d: unexpected deadlocks: %d", capacity, len(dl))
		}
	}
}
