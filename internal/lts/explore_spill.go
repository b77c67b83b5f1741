package lts

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// Disk-spilling visited index.
//
// The in-memory visited index is one map, so the reachable state count is
// bounded by RAM. The spilling index bounds it instead: entries accumulate
// in a small map and, whenever its estimated footprint crosses a byte
// budget, are written out as a sorted run file. A key is only inserted after
// its lookup missed, so the map and the runs hold pairwise-disjoint key
// sets. Lookups are batched per BFS level: a map probe per key, then one
// sequential merge of the sorted misses against each run.
//
// A spilling exploration also drops state payloads once a state has been
// expanded, so its working set is the byte budget plus the unexpanded
// frontier.

// DefaultSpillBudget is the default in-memory budget of the spilling visited
// index (bytes).
const DefaultSpillBudget = 64 << 20

// SpillConfig selects and tunes the disk-spilling visited index.
type SpillConfig struct {
	// Budget bounds the estimated in-memory index footprint in bytes; past
	// it, the index spills a sorted run. 0 selects DefaultSpillBudget.
	Budget int64
	// Dir is the parent directory for the run files ("" = the OS temp dir).
	// A per-exploration temp directory is created inside it and removed when
	// the exploration returns.
	Dir string
	// StatsOnly discards the graph and counts states and transitions only,
	// so nothing grows with the explored size except the bounded index and
	// the BFS frontier. Incompatible with MaxDepth/MaxObsDepth limits
	// (those need retained edges to propagate depth improvements).
	StatsOnly bool
}

// SpillStats reports what a spilling exploration did.
type SpillStats struct {
	// States and Transitions count the distinct states discovered and the
	// transitions derived from expanded states.
	States      int64 `json:"states"`
	Transitions int64 `json:"transitions"`
	// Runs is the number of sorted runs spilled; SpilledBytes their total
	// size on disk; PeakMemBytes the high-water estimate of the in-memory
	// index.
	Runs         int   `json:"runs"`
	SpilledBytes int64 `json:"spilledBytes"`
	PeakMemBytes int64 `json:"peakMemBytes"`
	// Truncated reports that MaxStates stopped the exploration.
	Truncated bool `json:"truncated,omitempty"`
}

// spillEntryOverhead estimates the per-entry bookkeeping of the in-memory
// index beyond the key bytes (string header, id, map bucket share).
const spillEntryOverhead = 48

// spillRun is one sorted run file; its keys are disjoint from every other
// run's and from the in-memory map.
type spillRun struct {
	path     string
	min, max string
}

// spillIndex is the budget-bounded visited index.
type spillIndex struct {
	dir    string
	budget int64

	mem      map[string]int
	memBytes int64
	peak     int64

	runs         []spillRun
	spilledBytes int64

	// known holds the ids of the current level: the hits of its batch
	// lookup plus the keys added during its merge. misses is the lookup's
	// reused probe buffer.
	known  map[string]int
	misses []string
}

// newSpillIndex creates the index and its run directory; close removes it.
func newSpillIndex(cfg *SpillConfig) (*spillIndex, error) {
	dir, err := os.MkdirTemp(cfg.Dir, "lts-spill-")
	if err != nil {
		return nil, fmt.Errorf("lts: creating spill dir: %w", err)
	}
	budget := cfg.Budget
	if budget <= 0 {
		budget = DefaultSpillBudget
	}
	return &spillIndex{dir: dir, budget: budget, mem: map[string]int{}, known: map[string]int{}}, nil
}

// close removes the run files and reports the index statistics.
func (x *spillIndex) close(into *SpillStats) {
	os.RemoveAll(x.dir)
	into.Runs = len(x.runs)
	into.SpilledBytes = x.spilledBytes
	into.PeakMemBytes = x.peak
}

func (x *spillIndex) get(key string) (int, bool) {
	id, ok := x.known[key]
	return id, ok
}

// put inserts a key known to be absent from the index, spilling a run when
// the in-memory footprint crosses the budget.
func (x *spillIndex) put(key string, id int) error {
	x.known[key] = id
	x.mem[key] = id
	x.memBytes += int64(len(key)) + spillEntryOverhead
	x.peak = max(x.peak, x.memBytes)
	if x.memBytes < x.budget {
		return nil
	}
	return x.flush()
}

// flush writes the in-memory entries as one sorted run and resets the map.
func (x *spillIndex) flush() error {
	keys := make([]string, 0, len(x.mem))
	for k := range x.mem {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	path := filepath.Join(x.dir, fmt.Sprintf("run-%06d", len(x.runs)))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("lts: spilling run: %w", err)
	}
	w := bufio.NewWriter(f)
	var rec []byte
	written := int64(0)
	for _, k := range keys {
		rec = binary.AppendUvarint(rec[:0], uint64(len(k)))
		rec = append(rec, k...)
		rec = binary.AppendUvarint(rec, uint64(x.mem[k]))
		w.Write(rec) // a failed write sticks: Flush reports it
		written += int64(len(rec))
	}
	err = w.Flush()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("lts: spilling run: %w", err)
	}
	x.runs = append(x.runs, spillRun{path: path, min: keys[0], max: keys[len(keys)-1]})
	x.spilledBytes += written
	x.mem = map[string]int{}
	x.memBytes = 0
	return nil
}

// resolve looks up every target key of one level in one pass: a map probe
// per key, then one sequential merge of the sorted misses against each run
// whose key range intersects them. The ids found replace known.
func (x *spillIndex) resolve(results [][]GenTransition) error {
	clear(x.known)
	misses := x.misses[:0]
	for _, ts := range results {
		for _, t := range ts {
			if id, ok := x.mem[t.Key]; ok {
				x.known[t.Key] = id
			} else {
				misses = append(misses, t.Key)
			}
		}
	}
	x.misses = misses
	if len(misses) == 0 || len(x.runs) == 0 {
		return nil
	}
	sort.Strings(misses)
	uniq := misses[:1]
	for _, k := range misses[1:] {
		if k != uniq[len(uniq)-1] {
			uniq = append(uniq, k)
		}
	}
	for _, run := range x.runs {
		if uniq[len(uniq)-1] < run.min || uniq[0] > run.max {
			continue
		}
		if err := run.scan(uniq, x.known); err != nil {
			return err
		}
	}
	return nil
}

// scan merges the sorted probe list against the run's sorted records,
// recording every hit.
func (run spillRun) scan(probes []string, out map[string]int) error {
	f, err := os.Open(run.path)
	if err != nil {
		return fmt.Errorf("lts: reading spilled run: %w", err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	i := 0
	var keyBuf []byte
	for {
		klen, err := binary.ReadUvarint(r)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("lts: reading spilled run: %w", err)
		}
		if uint64(cap(keyBuf)) < klen {
			keyBuf = make([]byte, klen)
		}
		keyBuf = keyBuf[:klen]
		if _, err := io.ReadFull(r, keyBuf); err != nil {
			return fmt.Errorf("lts: reading spilled run: %w", err)
		}
		id, err := binary.ReadUvarint(r)
		if err != nil {
			return fmt.Errorf("lts: reading spilled run: %w", err)
		}
		key := string(keyBuf)
		for i < len(probes) && probes[i] < key {
			i++
		}
		if i >= len(probes) {
			return nil
		}
		if probes[i] == key {
			out[probes[i]] = int(id)
			i++
			if i >= len(probes) {
				return nil
			}
		}
	}
}
