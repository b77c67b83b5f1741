package lts

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/lotos"
)

// ExploreSource runs the bounded exploration over any StateSource. The
// resulting Graph's States hold the source's state values where they are
// lotos.Expr (Explore), and nil otherwise (the composite states of
// internal/compose).
//
// Every exploration runs one level-synchronous BFS. Each level is split
// into states to expand, already-expanded states whose depth improvements
// propagate through their cached edges, and states held back by a depth
// bound (frontier); the successors of the states to expand are derived by
// workers goroutines (below 2, on the calling goroutine; with more, the
// source's Next must be safe for concurrent use); then the derived
// transitions are merged serially, in frontier order, against the visited
// index. Numbering depends on the merge order only, so the graph is the
// same for every worker count and every index.
//
// A non-nil spill selects the budget-bounded spilling visited index. Its
// graph differs only in Graph.States keeping just the never-expanded
// payloads, and the second result carries the spill statistics (non-nil
// even on error). With spill.StatsOnly no graph is built: the exploration
// only counts states and transitions.
func ExploreSource(src StateSource, rootKey string, root any, lim Limits, workers int, spill *SpillConfig) (*Graph, *SpillStats, error) {
	if lim.MaxStates <= 0 {
		lim.MaxStates = DefaultMaxStates
	}
	d := &deriver{src: src, workers: workers}
	if spill == nil {
		g, _, err := explore(d, memIndex{}, rootKey, root, lim, false)
		return g, nil, err
	}
	stats := &SpillStats{}
	if spill.StatsOnly && (lim.MaxDepth > 0 || lim.MaxObsDepth > 0) {
		return nil, stats, fmt.Errorf("lts: stats-only spill exploration supports the MaxStates limit only")
	}
	idx, err := newSpillIndex(spill)
	if err != nil {
		return nil, stats, err
	}
	defer idx.close(stats)
	if spill.StatsOnly {
		return nil, stats, census(d, idx, rootKey, root, lim, stats)
	}
	g, transitions, err := explore(d, idx, rootKey, root, lim, true)
	if err != nil {
		return nil, stats, err
	}
	stats.States, stats.Transitions, stats.Truncated = int64(g.NumStates()), transitions, g.Truncated
	return g, stats, nil
}

// visitedIndex maps state keys to state ids. Only the serial merge uses it.
type visitedIndex interface {
	// resolve prepares get for the transitions derived in one level (the
	// spilling index looks all their targets up in one batch).
	resolve(results [][]GenTransition) error
	// get returns the id of a key added before or during the current level.
	get(key string) (int, bool)
	// put records the id of a key get reported absent.
	put(key string, id int) error
}

// memIndex is the in-memory visited index.
type memIndex map[string]int

func (m memIndex) resolve([][]GenTransition) error { return nil }

func (m memIndex) get(key string) (int, bool) {
	id, ok := m[key]
	return id, ok
}

func (m memIndex) put(key string, id int) error {
	m[key] = id
	return nil
}

// deriver runs the derive step of every level, reusing its buffers.
type deriver struct {
	src     StateSource
	workers int
	results [][]GenTransition
	errs    []error
	cursor  atomic.Int64
	failed  atomic.Bool
}

// derive fills d.results with the transitions of each state. On failure it
// reports the index of the first failed state.
func (d *deriver) derive(states []any) (int, error) {
	n := len(states)
	d.results = slices.Grow(d.results[:0], n)[:n]
	d.errs = slices.Grow(d.errs[:0], n)[:n]
	d.cursor.Store(0)
	d.failed.Store(false)
	if w := min(d.workers, n); w > 1 {
		var wg sync.WaitGroup
		wg.Add(w)
		for range w {
			go func() {
				defer wg.Done()
				d.work(states)
			}()
		}
		wg.Wait()
	} else {
		d.work(states)
	}
	for i, err := range d.errs {
		if err != nil {
			return i, err
		}
	}
	return 0, nil
}

// work derives states from the shared cursor until none is left or one
// derivation failed.
func (d *deriver) work(states []any) {
	for !d.failed.Load() {
		i := int(d.cursor.Add(1)) - 1
		if i >= len(states) {
			return
		}
		d.results[i], d.errs[i] = d.src.Next(states[i])
		if d.errs[i] != nil {
			d.failed.Store(true)
		}
	}
}

// bfs is the state of one graph-building exploration.
type bfs struct {
	g        *Graph
	index    visitedIndex
	states   []any // payloads of unexpanded states (and of expanded Exprs unless dropped)
	obsDepth []int
	expanded []bool
	// queued stamps each state with the last level it joined, so a state
	// is queued at most once per level.
	queued []int32
	stamp  int32
	next   []int
}

// explore builds the graph and counts the derived transitions. drop
// discards every payload at expansion, not just those the graph does not
// return.
func explore(d *deriver, index visitedIndex, rootKey string, root any, lim Limits, drop bool) (*Graph, int64, error) {
	g := &Graph{Frontier: map[int]bool{}}
	b := &bfs{g: g, index: index}
	if _, err := b.add(rootKey, root, 0, 0); err != nil {
		return nil, 0, err
	}
	var transitions int64
	var toExpand []int
	var payloads []any
	for level := []int{0}; len(level) > 0; level, b.next = b.next, level[:0] {
		b.stamp++
		toExpand = toExpand[:0]
		for _, id := range level {
			switch {
			case b.expanded[id]:
				for _, e := range g.Edges[id] {
					b.relax(id, e)
				}
			case lim.MaxDepth > 0 && g.Depth[id] >= lim.MaxDepth,
				lim.MaxObsDepth > 0 && b.obsDepth[id] >= lim.MaxObsDepth:
				g.Frontier[id] = true
			default:
				toExpand = append(toExpand, id)
			}
		}

		payloads = payloads[:0]
		for _, id := range toExpand {
			payloads = append(payloads, b.states[id])
		}
		if i, err := d.derive(payloads); err != nil {
			return nil, 0, fmt.Errorf("exploring state %d: %w", toExpand[i], err)
		}
		if err := index.resolve(d.results); err != nil {
			return nil, 0, err
		}

		for i, head := range toExpand {
			b.expanded[head] = true
			delete(g.Frontier, head)
			if _, ok := b.states[head].(lotos.Expr); drop || !ok {
				b.states[head] = nil
			}
			ts := d.results[i]
			transitions += int64(len(ts))
			var edges []Edge
			if len(ts) > 0 {
				edges = make([]Edge, 0, len(ts))
			}
			for _, t := range ts {
				if id, ok := index.get(t.Key); ok {
					e := Edge{Label: t.Label, To: id}
					edges = append(edges, e)
					b.relax(head, e)
					continue
				}
				if len(b.states) >= lim.MaxStates {
					g.Frontier[head] = true
					continue
				}
				nd := b.obsDepth[head]
				if t.Label.Observable() {
					nd++
				}
				to, err := b.add(t.Key, t.To, g.Depth[head]+1, nd)
				if err != nil {
					return nil, 0, err
				}
				edges = append(edges, Edge{Label: t.Label, To: to})
				b.enqueue(to)
			}
			g.Edges[head] = edges
		}
		clear(d.results)
		clear(payloads)
	}

	g.States = make([]lotos.Expr, len(b.states))
	for i, st := range b.states {
		g.States[i], _ = st.(lotos.Expr)
	}
	g.ObsDepth = b.obsDepth
	g.Truncated = len(g.Frontier) > 0
	return g, transitions, nil
}

// add numbers a new state.
func (b *bfs) add(key string, st any, depth, obs int) (int, error) {
	id := len(b.states)
	if err := b.index.put(key, id); err != nil {
		return 0, err
	}
	b.states = append(b.states, st)
	b.g.Keys = append(b.g.Keys, key)
	b.g.Edges = append(b.g.Edges, nil)
	b.g.Depth = append(b.g.Depth, depth)
	b.obsDepth = append(b.obsDepth, obs)
	b.expanded = append(b.expanded, false)
	b.queued = append(b.queued, 0)
	return id, nil
}

// enqueue adds a state to the next level.
func (b *bfs) enqueue(id int) {
	if b.queued[id] != b.stamp {
		b.queued[id] = b.stamp
		b.next = append(b.next, id)
	}
}

// relax pushes head's depths through one edge and queues the target when
// they improve it: a shorter path re-expands a state held back by a depth
// bound, or propagates through an expanded state's cached edges.
func (b *bfs) relax(head int, e Edge) {
	nd := b.obsDepth[head]
	if e.Label.Observable() {
		nd++
	}
	improved := false
	if nd < b.obsDepth[e.To] {
		b.obsDepth[e.To] = nd
		improved = true
	}
	if d := b.g.Depth[head] + 1; d < b.g.Depth[e.To] {
		b.g.Depth[e.To] = d
		improved = true
	}
	if improved {
		b.enqueue(e.To)
	}
}

// census counts the states and transitions of a MaxStates-bounded
// exploration, retaining only the visited index and one level's payloads.
func census(d *deriver, index visitedIndex, rootKey string, root any, lim Limits, stats *SpillStats) error {
	if err := index.put(rootKey, 0); err != nil {
		return err
	}
	states := 1
	for level, next := []any{root}, []any(nil); len(level) > 0; level, next = next, level[:0] {
		if _, err := d.derive(level); err != nil {
			return err
		}
		if err := index.resolve(d.results); err != nil {
			return err
		}
		for _, ts := range d.results {
			stats.Transitions += int64(len(ts))
			for _, t := range ts {
				if _, ok := index.get(t.Key); ok {
					continue
				}
				if states >= lim.MaxStates {
					stats.Truncated = true
					continue
				}
				if err := index.put(t.Key, states); err != nil {
					return err
				}
				states++
				next = append(next, t.To)
			}
		}
		clear(d.results)
		clear(level)
	}
	stats.States = int64(states)
	return nil
}
