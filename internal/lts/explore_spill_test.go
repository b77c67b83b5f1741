package lts

import (
	"fmt"
	"reflect"
	"strconv"
	"testing"
)

// spillTestSource builds a deterministic synthetic graph large enough to
// force several run spills under a tiny budget: n states in a ring with
// chord edges, a τ self-avoiding chain, and a few terminal (deadlock)
// states hanging off the chords.
func spillTestSource(n int) *fakeSource {
	f := &fakeSource{edges: map[string][]GenTransition{}}
	name := func(i int) string { return "state-" + strconv.Itoa(i) }
	for i := 0; i < n; i++ {
		var out []GenTransition
		out = append(out, obs(name((i+1)%n)))
		if i%3 == 0 {
			out = append(out, tau(name((i*7+13)%n)))
		}
		if i%17 == 0 {
			// Terminal chord: a state with no outgoing transitions.
			out = append(out, obs("dead-"+strconv.Itoa(i)))
		}
		f.edges[name(i)] = out
	}
	return f
}

// assertGraphsIdentical requires byte-identical state numbering, keys, edge
// tables, depths and frontiers — the exploration core's contract is exact
// agreement across worker counts and visited indexes, not just
// bisimilarity.
func assertGraphsIdentical(t *testing.T, a, b *Graph, what string) {
	t.Helper()
	if a.NumStates() != b.NumStates() || a.NumTransitions() != b.NumTransitions() {
		t.Fatalf("%s: sizes differ: %d/%d vs %d/%d states/transitions",
			what, a.NumStates(), a.NumTransitions(), b.NumStates(), b.NumTransitions())
	}
	if !reflect.DeepEqual(a.Keys, b.Keys) {
		t.Fatalf("%s: state numbering differs", what)
	}
	if !reflect.DeepEqual(a.Edges, b.Edges) {
		t.Fatalf("%s: edge tables differ", what)
	}
	if !reflect.DeepEqual(a.ObsDepth, b.ObsDepth) {
		t.Fatalf("%s: depth accounting differs", what)
	}
	if !reflect.DeepEqual(a.Frontier, b.Frontier) {
		t.Fatalf("%s: frontiers differ: %v vs %v", what, a.Frontier, b.Frontier)
	}
	if a.Truncated != b.Truncated {
		t.Fatalf("%s: truncation flags differ: %v vs %v", what, a.Truncated, b.Truncated)
	}
	if len(a.Deadlocks()) != len(b.Deadlocks()) {
		t.Fatalf("%s: deadlock counts differ: %d vs %d", what, len(a.Deadlocks()), len(b.Deadlocks()))
	}
}

// TestSpillMatchesInMemoryExplorers is the determinism contract: under a
// budget tiny enough to force many spilled runs, the spilling index must
// produce exactly the graph the in-memory index produces, at one worker and
// at four, under a state cap and under observable-depth re-expansion too.
func TestSpillMatchesInMemoryExplorers(t *testing.T) {
	src := spillTestSource(900)
	for _, lim := range []Limits{
		{MaxStates: 5000},
		{MaxStates: 200},
		{MaxObsDepth: 16, MaxStates: 5000},
		{MaxObsDepth: 16, MaxStates: 300},
	} {
		graphs := exploreEvery(t, src, "state-0", "state-0", lim)
		memory := graphs[0]
		for _, workers := range []int{1, 4} {
			spilled, stats, err := ExploreSource(src, "state-0", "state-0", lim, workers, &SpillConfig{Budget: 2048, Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			assertGraphsIdentical(t, memory, spilled, fmt.Sprintf("%+v: spill at %d workers vs memory", lim, workers))
			if stats.Runs == 0 {
				t.Errorf("%+v: 2KiB budget over %d states spilled no runs", lim, spilled.NumStates())
			}
			// The index spills when an insert crosses the budget, so the peak
			// may overshoot by at most one entry (key bytes + bookkeeping
			// overhead).
			if slack := int64(2048 + spillEntryOverhead + 64); stats.PeakMemBytes > slack {
				t.Errorf("peak index memory %d exceeds the 2048-byte budget beyond one entry (%d)", stats.PeakMemBytes, slack)
			}
			if stats.States != int64(memory.NumStates()) {
				t.Errorf("stats count %d states, the graph has %d", stats.States, memory.NumStates())
			}
			if !memory.Truncated && stats.Transitions != int64(memory.NumTransitions()) {
				t.Errorf("stats count %d transitions, the graph has %d", stats.Transitions, memory.NumTransitions())
			}
		}
	}
}

// TestSpillLargeBudgetNeverSpills pins the fast path: with the default
// budget nothing is written to disk and the graph is still identical.
func TestSpillLargeBudgetNeverSpills(t *testing.T) {
	src := spillTestSource(300)
	lim := Limits{MaxStates: 5000}
	parallel, _, err := ExploreSource(src, "state-0", "state-0", lim, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	spilled, stats, err := ExploreSource(src, "state-0", "state-0", lim, 1, &SpillConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsIdentical(t, parallel, spilled, "spill (no-spill path) vs parallel")
	if stats.Runs != 0 || stats.SpilledBytes != 0 {
		t.Errorf("default budget spilled %d runs (%d bytes)", stats.Runs, stats.SpilledBytes)
	}
}

// TestSpillTruncationMatchesParallel pins that MaxStates truncation cuts the
// spilled exploration at the same level-synchronous boundary as the parallel
// explorer — the differential suites compare truncated graphs too.
func TestSpillTruncationMatchesParallel(t *testing.T) {
	src := spillTestSource(900)
	lim := Limits{MaxStates: 200}
	parallel, _, err := ExploreSource(src, "state-0", "state-0", lim, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	spilled, stats, err := ExploreSource(src, "state-0", "state-0", lim, 1, &SpillConfig{Budget: 1024, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !spilled.Truncated || !stats.Truncated {
		t.Error("200-state cap over a 900-state graph did not truncate")
	}
	assertGraphsIdentical(t, parallel, spilled, "truncated spill vs parallel")
}

// TestSpillStatsOnly checks the counting mode: same state and transition
// totals as a full exploration, no graph retained, and depth limits
// rejected (they need retained edges).
func TestSpillStatsOnly(t *testing.T) {
	src := spillTestSource(400)
	lim := Limits{MaxStates: 5000}
	full, fullStats, err := ExploreSource(src, "state-0", "state-0", lim, 1, &SpillConfig{Budget: 2048, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	g, stats, err := ExploreSource(src, "state-0", "state-0", lim, 2, &SpillConfig{Budget: 2048, Dir: t.TempDir(), StatsOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if g != nil {
		t.Error("stats-only exploration returned a graph")
	}
	if stats.States != fullStats.States || stats.Transitions != fullStats.Transitions {
		t.Errorf("stats-only counts (%d, %d) differ from full exploration (%d, %d)",
			stats.States, stats.Transitions, fullStats.States, fullStats.Transitions)
	}
	if full.NumStates() != int(stats.States) {
		t.Errorf("full graph has %d states, stats-only counted %d", full.NumStates(), stats.States)
	}

	if _, _, err := ExploreSource(src, "state-0", "state-0", Limits{MaxObsDepth: 3}, 1, &SpillConfig{StatsOnly: true}); err == nil {
		t.Error("stats-only with a depth limit did not error")
	}
}

// TestSpillDerivationErrorPropagates checks that a failing derivation
// surfaces as an error (with non-nil stats) rather than a partial graph.
func TestSpillDerivationErrorPropagates(t *testing.T) {
	src := spillTestSource(100)
	src.failOn = "state-50"
	g, stats, err := ExploreSource(src, "state-0", "state-0", Limits{MaxStates: 5000}, 1, &SpillConfig{Budget: 1024, Dir: t.TempDir()})
	if err == nil {
		t.Fatal("injected derivation failure did not surface")
	}
	if g != nil {
		t.Error("failed exploration returned a graph")
	}
	if stats == nil {
		t.Error("failed exploration returned nil stats")
	}
}
