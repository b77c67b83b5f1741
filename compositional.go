package protoderive

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"

	"repro/internal/compose"
	"repro/internal/fsm"
	"repro/internal/lotos"
	"repro/internal/lts"
)

// ArtifactCache is a content-addressed cache of per-entity pipeline
// artifacts: explored-and-quotiented entity LTSs (the unit the compositional
// verifier composes over) and compiled table-driven machines. Entries are
// keyed by SHA-256 of the normalized entity behaviour plus the option
// fingerprint — never by which service specification produced the entity —
// so two specifications sharing one entity share the work, and editing one
// entity of an n-place specification re-derives only that entity.
//
// An ArtifactCache is safe for concurrent use and is meant to be shared: one
// cache per daemon, handed to every Protocol (see Protocol.UseArtifacts).
type ArtifactCache struct {
	mu      sync.Mutex
	entries map[string]*list.Element // key -> LRU element holding *artifact
	lru     list.List                // front = most recent
	cap     int

	// table is the label table shared by every machine compiled through
	// this cache, so machines cached under different specifications can
	// serve in one fleet. It is only mutated under mu.
	table *lts.LabelTable

	hits, misses uint64 // entity-LTS lookups
	fsmHits      uint64 // machine lookups
	fsmMisses    uint64
}

// artifact is one cache entry: an entity quotient, a compiled machine, or a
// negative compile result.
type artifact struct {
	key        string
	el         *compose.EntityLTS
	machine    *fsm.Machine
	compileErr *fsm.CompileError
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
		table:   lts.NewLabelTable(),
	}
}

// artifactKey builds the content address of one entity artifact: the kind
// tag, the normalized entity text and the state-cap fingerprint, all
// length-framed so no field can bleed into the next.
func artifactKey(kind, entityText string, maxStates int) string {
	h := sha256.New()
	var frame [binary.MaxVarintLen64]byte
	writeField := func(s string) {
		n := binary.PutUvarint(frame[:], uint64(len(s)))
		h.Write(frame[:n])
		h.Write([]byte(s))
	}
	writeField(kind)
	writeField(entityText)
	n := binary.PutUvarint(frame[:], uint64(maxStates))
	h.Write(frame[:n])
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
	// Entries is the current entry count (entity LTSs plus machines).
	Entries int `json:"entries"`
	// EntityHits / EntityMisses count quotient-artifact lookups.
	EntityHits   uint64 `json:"entityHits"`
	EntityMisses uint64 `json:"entityMisses"`
	// FSMHits / FSMMisses count compiled-machine lookups.
	FSMHits   uint64 `json:"fsmHits"`
	FSMMisses uint64 `json:"fsmMisses"`
}

// HitRatio is the fraction of entity-LTS lookups served from cache.
func (s ArtifactStats) HitRatio() float64 {
	total := s.EntityHits + s.EntityMisses
	if total == 0 {
		return 0
	}
	return float64(s.EntityHits) / float64(total)
}

// Stats snapshots the cache counters.
func (c *ArtifactCache) Stats() ArtifactStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ArtifactStats{
		Entries:      len(c.entries),
		EntityHits:   c.hits,
		EntityMisses: c.misses,
		FSMHits:      c.fsmHits,
		FSMMisses:    c.fsmMisses,
	}
}

// provider adapts the cache to the compositional verifier: entity quotients
// are recalled by content address and built (outside the lock) on miss.
// Concurrent misses of one key may build twice; both builds produce
// identical immutable artifacts, so the duplicate work is the only cost.
func (c *ArtifactCache) provider() compose.EntityProvider {
	return func(place int, sp *lotos.Spec, maxStates int) (*compose.EntityLTS, error) {
		key := artifactKey("entlts", sp.String(), maxStates)
		c.mu.Lock()
		a := c.get(key)
		if a != nil && a.el != nil {
			c.hits++
			c.mu.Unlock()
			hit := *a.el
			hit.Place = place
			hit.Reused = true
			hit.BuildNanos = 0
			return &hit, nil
		}
		c.misses++
		c.mu.Unlock()

		el, err := compose.BuildEntityLTS(place, sp, maxStates)
		if err != nil {
			return nil, err
		}
		// Truncated artifacts are cached too: the entry records that the
		// entity exceeds this state cap, so later verifications skip the
		// doomed exploration and fall back to the monolithic path at once.
		c.mu.Lock()
		c.put(&artifact{key: key, el: el})
		c.mu.Unlock()
		return el, nil
	}
}

// machine recalls (or compiles and caches) the table-driven machine of one
// entity. All machines compiled through one cache share its label table, so
// they can serve together in one fleet; compilation therefore runs under the
// cache lock (the label table is not safe for concurrent interning).
func (c *ArtifactCache) machine(place int, sp *lotos.Spec, text string, maxStates int) (*fsm.Machine, *fsm.CompileError) {
	key := artifactKey("fsm", text, maxStates)
	c.mu.Lock()
	defer c.mu.Unlock()
	if a := c.get(key); a != nil && (a.machine != nil || a.compileErr != nil) {
		c.fsmHits++
		if a.compileErr != nil {
			ce := *a.compileErr
			ce.Place = place
			return nil, &ce
		}
		return a.machine, nil
	}
	c.fsmMisses++
	m, err := fsm.Compile(place, sp, fsm.Config{MaxStates: maxStates, Table: c.table})
	if err != nil {
		ce, ok := err.(*fsm.CompileError)
		if !ok {
			ce = &fsm.CompileError{Place: place, Reason: err.Error()}
		}
		c.put(&artifact{key: key, compileErr: ce})
		return nil, ce
	}
	c.put(&artifact{key: key, machine: m})
	return m, nil
}

// fleetFor assembles a compiled fleet over the cache: every entity machine
// is recalled by content address or compiled into the cache's shared label
// table on miss.
func (c *ArtifactCache) fleetFor(entities map[int]*lotos.Spec, maxStates int) *fsm.Fleet {
	f := &fsm.Fleet{
		Table:    c.table,
		Machines: make(map[int]*fsm.Machine, len(entities)),
		Errors:   map[int]*fsm.CompileError{},
	}
	places := make([]int, 0, len(entities))
	for p := range entities {
		places = append(places, p)
	}
	sort.Ints(places)
	for _, p := range places {
		sp := entities[p]
		m, ce := c.machine(p, sp, sp.String(), maxStates)
		if ce != nil {
			f.Errors[p] = ce
			continue
		}
		f.Machines[p] = m
	}
	return f
}

// UseArtifacts attaches a shared artifact cache to the protocol: subsequent
// compositional Verify/VerifyMatrix calls recall entity quotients through
// it, and compiled-fleet construction (Simulate, Replay, Compile) recalls
// per-entity machines through it. Safe to call once, before concurrent use.
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
// byte-identical are Unchanged — their cached artifacts (quotients, compiled
// machines) apply to both protocols.
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
