package medium

import "testing"

func TestMediumDropAt(t *testing.T) {
	m := New(Config{})
	defer m.Close()
	m.Send(msg(1, 2, 10))
	m.Send(msg(1, 2, 11))
	m.Send(msg(1, 2, 12))
	if m.DropAt(1, 2, 3) || m.DropAt(1, 2, -1) || m.DropAt(2, 1, 0) {
		t.Error("DropAt accepted an out-of-range position")
	}
	if !m.DropAt(1, 2, 1) {
		t.Fatal("DropAt(1) failed")
	}
	// 11 is gone; FIFO order of the survivors is preserved.
	if !m.TryConsume(msg(1, 2, 10)) || !m.TryConsume(msg(1, 2, 12)) {
		t.Errorf("survivors not consumable in order, pending %v", m.Pending(1, 2))
	}
	if st := m.Stats(); st.Dropped != 1 {
		t.Errorf("dropped = %d, want 1", st.Dropped)
	}
}

func TestMediumDuplicateAt(t *testing.T) {
	m := New(Config{})
	defer m.Close()
	m.Send(msg(1, 2, 10))
	m.Send(msg(1, 2, 11))
	if m.DuplicateAt(1, 2, 2) || m.DuplicateAt(1, 2, -1) {
		t.Error("DuplicateAt accepted an out-of-range position")
	}
	if !m.DuplicateAt(1, 2, 0) {
		t.Fatal("DuplicateAt(0) failed")
	}
	// The copy sits adjacent to the original: 10, 10, 11.
	want := []int{10, 10, 11}
	got := m.Pending(1, 2)
	if len(got) != len(want) {
		t.Fatalf("pending %v, want nodes %v", got, want)
	}
	for i, g := range got {
		if g.Node != want[i] {
			t.Fatalf("pending %v, want nodes %v", got, want)
		}
	}
	if st := m.Stats(); st.Duplicated != 1 {
		t.Errorf("duplicated = %d, want 1", st.Duplicated)
	}
}

func TestMediumSwapAt(t *testing.T) {
	m := New(Config{})
	defer m.Close()
	m.Send(msg(1, 2, 10))
	m.Send(msg(1, 2, 11))
	m.Send(msg(1, 2, 12))
	if m.SwapAt(1, 2, 2) || m.SwapAt(1, 2, -1) {
		t.Error("SwapAt accepted a position without an adjacent pair")
	}
	if !m.SwapAt(1, 2, 1) {
		t.Fatal("SwapAt(1) failed")
	}
	// 10, 12, 11 now.
	for i, wantNode := range []int{10, 12, 11} {
		if got := m.Pending(1, 2); got[i].Node != wantNode {
			t.Fatalf("pending %v, want order 10,12,11", got)
		}
	}
	if st := m.Stats(); st.Reordered != 1 {
		t.Errorf("reordered = %d, want 1", st.Reordered)
	}
	// Targeted fault ops fire change notifications so blocked runners rescan.
	gen := m.Generation()
	m.SwapAt(1, 2, 0)
	if m.Generation() == gen {
		t.Error("SwapAt did not advance the generation counter")
	}
}
