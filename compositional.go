package protoderive

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/compose"
	"repro/internal/fsm"
	"repro/internal/lotos"
)

// ArtifactCache is a content-addressed cache of compiled entity machines
// (fsm.Machine), the one per-entity artifact of the pipeline: Simulate,
// Replay and Compile run its exact layer, and compositional verification
// composes over its minimized layer. Entries are keyed by SHA-256 of the
// normalized entity behaviour and the effective state cap — never by which
// service specification produced the entity — so two specifications sharing
// one entity share the work, and editing one entity of an n-place
// specification recompiles only that entity. An entity over the cap is
// cached as its compile error, so later lookups skip the doomed exploration.
//
// An ArtifactCache is safe for concurrent use and is meant to be shared: one
// cache per daemon, handed to every Protocol (see Protocol.UseArtifacts).
type ArtifactCache struct {
	mu      sync.Mutex
	entries map[string]*list.Element // key -> LRU element holding *artifact
	lru     list.List                // front = most recent
	cap     int

	hits, misses uint64
}

// artifact is one cache entry: a compiled machine or the compile error that
// stopped it.
type artifact struct {
	key     string
	machine *fsm.Machine
	err     *fsm.CompileError
}

// DefaultArtifactEntries bounds the artifact cache when the caller passes no
// capacity.
const DefaultArtifactEntries = 4096

// NewArtifactCache returns an empty cache bounded to the given number of
// entries (<= 0 selects DefaultArtifactEntries).
func NewArtifactCache(entries int) *ArtifactCache {
	if entries <= 0 {
		entries = DefaultArtifactEntries
	}
	return &ArtifactCache{
		entries: make(map[string]*list.Element, entries),
		cap:     entries,
	}
}

// artifactKey builds the content address of one entity artifact: the
// length-framed normalized entity text followed by the effective state cap.
func artifactKey(entityText string, maxStates int) string {
	h := sha256.New()
	var frame [binary.MaxVarintLen64]byte
	h.Write(frame[:binary.PutUvarint(frame[:], uint64(len(entityText)))])
	h.Write([]byte(entityText))
	h.Write(frame[:binary.PutUvarint(frame[:], uint64(maxStates))])
	return string(h.Sum(nil))
}

// get recalls an entry and marks it most recently used. Caller holds mu.
func (c *ArtifactCache) get(key string) *artifact {
	el, ok := c.entries[key]
	if !ok {
		return nil
	}
	c.lru.MoveToFront(el)
	return el.Value.(*artifact)
}

// put inserts an entry, evicting from the LRU tail. Caller holds mu.
func (c *ArtifactCache) put(a *artifact) {
	if el, ok := c.entries[a.key]; ok {
		el.Value = a
		c.lru.MoveToFront(el)
		return
	}
	c.entries[a.key] = c.lru.PushFront(a)
	for len(c.entries) > c.cap {
		tail := c.lru.Back()
		c.lru.Remove(tail)
		delete(c.entries, tail.Value.(*artifact).key)
	}
}

// Len returns the number of cached artifacts.
func (c *ArtifactCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// ArtifactStats is a point-in-time snapshot of the cache's counters.
type ArtifactStats struct {
	// Entries is the current entry count.
	Entries int `json:"entries"`
	// EntityHits / EntityMisses count artifact lookups — every compiled
	// machine a fleet or a compositional verification asked for.
	EntityHits   uint64 `json:"entityHits"`
	EntityMisses uint64 `json:"entityMisses"`
}

// Stats snapshots the cache counters.
func (c *ArtifactCache) Stats() ArtifactStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ArtifactStats{Entries: len(c.entries), EntityHits: c.hits, EntityMisses: c.misses}
}

// lookup recalls the compiled machine of one entity at an effective state
// cap, compiling it outside the lock on a miss. It has the shape of
// compose.EntityProvider: buildNanos is the compile wall time of a miss,
// and a failed compilation returns its *fsm.CompileError. Concurrent misses
// of one key may compile twice; both produce identical immutable machines,
// so the duplicate work is the only cost.
func (c *ArtifactCache) lookup(place int, sp *lotos.Spec, maxStates int) (m *fsm.Machine, buildNanos int64, hit bool, err error) {
	key := artifactKey(sp.String(), maxStates)
	c.mu.Lock()
	a := c.get(key)
	if a != nil {
		c.hits++
	} else {
		c.misses++
	}
	c.mu.Unlock()
	if a == nil {
		start := time.Now()
		m, err = fsm.Compile(place, sp, fsm.Config{MaxStates: maxStates})
		buildNanos = time.Since(start).Nanoseconds()
		a = &artifact{key: key, machine: m}
		if err != nil {
			a.err = err.(*fsm.CompileError)
		}
		c.mu.Lock()
		c.put(a)
		c.mu.Unlock()
		return m, buildNanos, false, err
	}
	if a.err != nil {
		ce := *a.err
		ce.Place = place
		return nil, 0, true, &ce
	}
	return a.machine, 0, true, nil
}

// UseArtifacts attaches a shared artifact cache to the protocol: compiled
// fleets (Simulate, Replay, Compile) and compositional Verify, VerifyMatrix
// and Optimize calls recall per-entity machines through it. Safe to call
// once, before concurrent use.
func (p *Protocol) UseArtifacts(c *ArtifactCache) { p.arts = c }

// EntityQuotientStat reports one entity's quotient-before-compose numbers
// inside a compositional verification report.
type EntityQuotientStat = compose.EntityQuotientStat

// CompositionalReport describes one compositional verification: the
// per-entity quotients, the product-over-quotients size, the per-phase wall
// times, the artifact reuse ratio, and — when the verdict came from the
// monolithic fallback — the reason.
type CompositionalReport = compose.CompositionalStats

// EntityDigest is the content address of one derived entity: the SHA-256 of
// its normalized behaviour text, hex-encoded. Two services whose derivations
// agree at a place agree on that place's digest regardless of everything
// else in the specification.
func EntityDigest(entityText string) string {
	sum := sha256.Sum256([]byte(entityText))
	return hex.EncodeToString(sum[:])
}

// EntityDigests returns place -> EntityDigest of the derived entity text,
// the per-entity content addresses delta verification diffs.
func (p *Protocol) EntityDigests() map[int]string {
	out := make(map[int]string, len(p.d.Places))
	for _, place := range p.d.Places {
		out[place] = EntityDigest(p.EntityText(place))
	}
	return out
}

// EntityDelta is the per-place difference between two derived protocols,
// computed on normalized entity behaviours. Places whose entity text is
// byte-identical are Unchanged — their cached compiled machines apply to
// both protocols.
type EntityDelta struct {
	// Unchanged lists places with identical entity behaviour.
	Unchanged []int `json:"unchanged"`
	// Changed lists places present on both sides with differing behaviour.
	Changed []int `json:"changed"`
	// Added / Removed list places present only in the edited / base side.
	Added   []int `json:"added,omitempty"`
	Removed []int `json:"removed,omitempty"`
}

// ReusablePlaces returns how many of the edited protocol's places carry over.
func (d EntityDelta) ReusablePlaces() int { return len(d.Unchanged) }

// DiffProtocols compares two protocols entity by entity on their normalized
// behaviour texts — the delta-verify planning step: unchanged places reuse
// cached artifacts, changed places re-derive.
func DiffProtocols(base, edited *Protocol) EntityDelta {
	bd := base.EntityDigests()
	ed := edited.EntityDigests()
	var out EntityDelta
	for place, dig := range ed {
		bdig, ok := bd[place]
		switch {
		case !ok:
			out.Added = append(out.Added, place)
		case bdig == dig:
			out.Unchanged = append(out.Unchanged, place)
		default:
			out.Changed = append(out.Changed, place)
		}
	}
	for place := range bd {
		if _, ok := ed[place]; !ok {
			out.Removed = append(out.Removed, place)
		}
	}
	sort.Ints(out.Unchanged)
	sort.Ints(out.Changed)
	sort.Ints(out.Added)
	sort.Ints(out.Removed)
	return out
}

// String renders the delta compactly ("3 unchanged, changed: [2]").
func (d EntityDelta) String() string {
	s := fmt.Sprintf("%d unchanged", len(d.Unchanged))
	if len(d.Changed) > 0 {
		s += fmt.Sprintf(", changed: %v", d.Changed)
	}
	if len(d.Added) > 0 {
		s += fmt.Sprintf(", added: %v", d.Added)
	}
	if len(d.Removed) > 0 {
		s += fmt.Sprintf(", removed: %v", d.Removed)
	}
	return s
}
