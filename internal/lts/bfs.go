package lts

import (
	"fmt"
	"slices"
	"strings"
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
	sized, _ := src.(SizedSource)
	var size Size
	if sized != nil {
		size = sized.Size()
	}
	d := &deriver{src: src, workers: workers}
	if spill == nil {
		g, got, err := explore(d, make(memIndex, size.States), rootKey, root, lim, false, size)
		if err == nil && sized != nil {
			sized.Explored(got)
		}
		return g, nil, err
	}
	stats := &SpillStats{}
	if spill.StatsOnly && lim.MaxObsDepth > 0 {
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
	g, got, err := explore(d, idx, rootKey, root, lim, true, size)
	if err != nil {
		return nil, stats, err
	}
	if sized != nil {
		sized.Explored(got)
	}
	stats.States, stats.Transitions, stats.Truncated = int64(g.NumStates()), int64(got.Transitions), g.Truncated
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

// deriver runs the derive step of every level, reusing its buffers: each
// worker appends the transitions of the states it derives to one buffer of
// its own, and the i-th state's transitions are the window results[i] of
// it, so the transition buffers are allocated once per exploration, not
// per state. A buffer that grows mid-level leaves the windows cut before on
// its old array, which they keep alive until release.
type deriver struct {
	src     StateSource
	workers int
	results [][]GenTransition
	bufs    [][]GenTransition // per worker
	room    int               // the room a first worker buffer gets
	errs    []error
	cursor  atomic.Int64
	failed  atomic.Bool
}

// presize gives the buffers room for an exploration of size s: its widest
// level's states and transitions.
func (d *deriver) presize(s Size) {
	d.results = make([][]GenTransition, 0, s.Level)
	d.errs = make([]error, 0, s.Level)
	d.room = s.LevelTransitions
}

// derive fills d.results with the transitions of each state. On failure it
// reports the index of the first failed state.
func (d *deriver) derive(states []any) (int, error) {
	n := len(states)
	d.results = slices.Grow(d.results[:0], n)[:n]
	d.errs = slices.Grow(d.errs[:0], n)[:n]
	d.cursor.Store(0)
	d.failed.Store(false)
	w := max(min(d.workers, n), 1)
	for len(d.bufs) < w {
		d.bufs = append(d.bufs, make([]GenTransition, 0, d.room/w))
	}
	if w > 1 {
		var wg sync.WaitGroup
		wg.Add(w)
		for k := range w {
			go func() {
				defer wg.Done()
				d.work(k, states)
			}()
		}
		wg.Wait()
	} else {
		d.work(0, states)
	}
	for i, err := range d.errs {
		if err != nil {
			return i, err
		}
	}
	return 0, nil
}

// work derives states from the shared cursor into worker k's buffer until
// none is left or one derivation failed.
func (d *deriver) work(k int, states []any) {
	buf := d.bufs[k]
	for !d.failed.Load() {
		i := int(d.cursor.Add(1)) - 1
		if i >= len(states) {
			break
		}
		lo := len(buf)
		buf, d.errs[i] = d.src.Next(states[i], buf)
		d.results[i] = buf[lo:len(buf):len(buf)]
		if d.errs[i] != nil {
			d.failed.Store(true)
		}
	}
	d.bufs[k] = buf
}

// release empties the level's transition buffers, keeping their room, so
// they pin no target state or key.
func (d *deriver) release() {
	for k, buf := range d.bufs {
		clear(buf)
		d.bufs[k] = buf[:0]
	}
	clear(d.results)
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

// explore builds the graph and measures it. drop discards every payload at
// expansion, not just those the graph does not return. size, the expected
// size, presizes the per-state slices, the level buffers and the edge slab.
//
// Edges are carved from slabs: each level's edges, or with a size the
// whole graph's, share one allocation, each state's row a capped window.
func explore(d *deriver, index visitedIndex, rootKey string, root any, lim Limits, drop bool, size Size) (*Graph, Size, error) {
	n := size.States
	g := &Graph{Keys: make([]string, 0, n), Edges: make([][]Edge, 0, n), Frontier: map[int]bool{}}
	b := &bfs{
		g: g, index: index,
		states: make([]any, 0, n), obsDepth: make([]int, 0, n),
		expanded: make([]bool, 0, n), queued: make([]int32, 0, n),
		next: make([]int, 0, size.Level),
	}
	d.presize(size)
	if _, err := b.add(rootKey, root, 0); err != nil {
		return nil, Size{}, err
	}
	var got Size
	var slab []Edge
	toExpand := make([]int, 0, size.Level)
	payloads := make([]any, 0, size.Level)
	for level := []int{0}; len(level) > 0; level, b.next = b.next, level[:0] {
		b.stamp++
		toExpand = toExpand[:0]
		for _, id := range level {
			switch {
			case b.expanded[id]:
				for j := range g.Edges[id] {
					b.relax(id, &g.Edges[id][j])
				}
			case lim.MaxObsDepth > 0 && b.obsDepth[id] >= lim.MaxObsDepth:
				g.Frontier[id] = true
			default:
				toExpand = append(toExpand, id)
			}
		}
		got.Level = max(got.Level, len(toExpand))

		payloads = payloads[:0]
		for _, id := range toExpand {
			payloads = append(payloads, b.states[id])
		}
		if i, err := d.derive(payloads); err != nil {
			return nil, Size{}, fmt.Errorf("exploring state %d: %w", toExpand[i], err)
		}
		if err := index.resolve(d.results); err != nil {
			return nil, Size{}, err
		}
		derived := 0
		for _, ts := range d.results {
			derived += len(ts)
		}
		got.LevelTransitions = max(got.LevelTransitions, derived)
		if cap(slab)-len(slab) < derived {
			slab = make([]Edge, 0, max(derived, size.Transitions-got.Transitions))
		}
		got.Transitions += derived

		for i, head := range toExpand {
			b.expanded[head] = true
			delete(g.Frontier, head)
			if _, ok := b.states[head].(lotos.Expr); drop || !ok {
				b.states[head] = nil
			}
			ts := d.results[i]
			var edges []Edge
			if len(ts) > 0 {
				lo := len(slab)
				slab = slab[:lo+len(ts)]
				edges = slab[lo:lo:len(slab)]
			}
			for j := range ts {
				t := &ts[j]
				if id, ok := index.get(t.Key); ok {
					edges = append(edges, Edge{Label: t.Label, To: int32(id)})
					b.relax(head, &edges[len(edges)-1])
					continue
				}
				if len(b.states) >= lim.MaxStates {
					g.Frontier[head] = true
					continue
				}
				nd := b.obsDepth[head]
				if t.Label != InternalID {
					nd++
				}
				to, err := b.add(t.Key, t.To, nd)
				if err != nil {
					return nil, Size{}, err
				}
				edges = append(edges, Edge{Label: t.Label, To: int32(to)})
				b.enqueue(to)
			}
			g.Edges[head] = edges
		}
		d.release()
		clear(payloads)
	}

	g.States = make([]lotos.Expr, len(b.states))
	for i, st := range b.states {
		g.States[i], _ = st.(lotos.Expr)
	}
	g.Alphabet = d.src.Alphabet()
	g.ObsDepth = b.obsDepth
	g.Truncated = len(g.Frontier) > 0
	got.States = len(b.states)
	return g, got, nil
}

// add numbers a new state. The key is copied: a source's keys may share
// memory with the rest of its derivation.
func (b *bfs) add(key string, st any, obs int) (int, error) {
	id := len(b.states)
	key = strings.Clone(key)
	if err := b.index.put(key, id); err != nil {
		return 0, err
	}
	b.states = append(b.states, st)
	b.g.Keys = append(b.g.Keys, key)
	b.g.Edges = append(b.g.Edges, nil)
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

// relax pushes head's observable depth through one edge and queues the
// target when it improves: a shorter path re-expands a state held back by
// the depth bound, or propagates through an expanded state's cached edges.
func (b *bfs) relax(head int, e *Edge) {
	nd := b.obsDepth[head]
	if e.Label != InternalID {
		nd++
	}
	if nd < b.obsDepth[e.To] {
		b.obsDepth[e.To] = nd
		b.enqueue(int(e.To))
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
			for i := range ts {
				t := &ts[i]
				if _, ok := index.get(t.Key); ok {
					continue
				}
				if states >= lim.MaxStates {
					stats.Truncated = true
					continue
				}
				if err := index.put(strings.Clone(t.Key), states); err != nil {
					return err
				}
				states++
				next = append(next, t.To)
			}
		}
		d.release()
		clear(level)
	}
	stats.States = int64(states)
	return nil
}
