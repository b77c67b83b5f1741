package fsm

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"sync"

	"repro/internal/lotos"
)

// Cache is the content-addressed store of capped machines: simulation runs
// their lazily filled rows, and compile reports and compositional
// verification read their minimized layers. Entries are keyed by SHA-256
// of the normalized entity text and the effective state cap — never by
// which service specification produced the entity — so two specifications
// sharing one entity share its machine, and editing one entity of an
// n-place specification rebuilds only that entity. A machine keeps its
// minimized layer or the error that stopped it, so later lookups skip a
// doomed exploration. The cache holds at most a fixed number of machines,
// evicting the least recently used.
//
// A Cache is safe for concurrent use and is meant to be shared: one per
// protocol, or one per daemon handed to every protocol it derives.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*list.Element // key -> LRU element holding *cacheEntry
	lru     list.List                // front = most recent
	cap     int

	hits, misses uint64
}

// cacheEntry is one machine, or the error of an entity that does not
// resolve, built once by the first caller that asks for it.
type cacheEntry struct {
	key     string
	once    sync.Once
	machine *Machine
	err     *CompileError
}

// DefaultCacheEntries bounds a cache when the caller passes no capacity.
const DefaultCacheEntries = 4096

// NewCache returns an empty cache bounded to the given number of machines
// (<= 0 selects DefaultCacheEntries).
func NewCache(entries int) *Cache {
	if entries <= 0 {
		entries = DefaultCacheEntries
	}
	return &Cache{entries: map[string]*list.Element{}, cap: entries}
}

// entityKey is the content address of one entity: the SHA-256 of its
// length-framed normalized text. Computing it renders the whole entity, so
// a caller that recalls the same entities repeatedly computes their keys
// once (EntityKeys) and hands them to Fleet.
func entityKey(sp *lotos.Spec) string {
	text := sp.String()
	h := sha256.New()
	h.Write(binary.AppendUvarint(nil, uint64(len(text))))
	h.Write([]byte(text))
	return string(h.Sum(nil))
}

// EntityKeys returns the content address of every entity, by place.
func EntityKeys(entities map[int]*lotos.Spec) map[int]string {
	keys := make(map[int]string, len(entities))
	for place, sp := range entities {
		keys[place] = entityKey(sp)
	}
	return keys
}

// cacheKey builds the content address of one machine: its entity's key
// followed by the effective state cap.
func cacheKey(entityKey string, maxStates int) string {
	return string(binary.AppendUvarint([]byte(entityKey), uint64(maxStates)))
}

// CacheStats is a point-in-time snapshot of a cache's counters.
type CacheStats struct {
	// Entries is the current entry count.
	Entries int `json:"entries"`
	// EntityHits / EntityMisses count machine lookups — every machine a
	// fleet or a compositional verification asked for.
	EntityHits   uint64 `json:"entityHits"`
	EntityMisses uint64 `json:"entityMisses"`
}

// Len returns the number of cached machines.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Entries: len(c.entries), EntityHits: c.hits, EntityMisses: c.misses}
}

// Machine recalls the machine of one entity at a state cap (0 = the
// default), building it on a miss, and reports whether it was a hit.
// Concurrent callers of one key share one machine, built by the first. An
// entity that does not resolve returns its error, naming the place it was
// asked for: one content-addressed machine can serve several places.
func (c *Cache) Machine(place int, sp *lotos.Spec, maxStates int) (*Machine, bool, *CompileError) {
	return c.machine(place, sp, entityKey(sp), maxStates)
}

// machine is Machine for an entity whose entityKey is known.
func (c *Cache) machine(place int, sp *lotos.Spec, entityKey string, maxStates int) (*Machine, bool, *CompileError) {
	maxStates = Config{MaxStates: maxStates}.maxStates()
	key := cacheKey(entityKey, maxStates)
	c.mu.Lock()
	el, hit := c.entries[key]
	if hit {
		c.lru.MoveToFront(el)
		c.hits++
	} else {
		c.misses++
		el = c.lru.PushFront(&cacheEntry{key: key})
		c.entries[key] = el
		for len(c.entries) > c.cap {
			tail := c.lru.Back()
			c.lru.Remove(tail)
			delete(c.entries, tail.Value.(*cacheEntry).key)
		}
	}
	e := el.Value.(*cacheEntry)
	c.mu.Unlock()
	e.once.Do(func() {
		var err error
		if e.machine, err = New(place, sp, Config{MaxStates: maxStates}); err != nil {
			e.err = err.(*CompileError)
		}
	})
	return e.machine, hit, AtPlace(e.err, place)
}

// AtPlace returns a copy of a cached entity's error naming the place it was
// asked for (nil for nil).
func AtPlace(ce *CompileError, place int) *CompileError {
	if ce == nil {
		return nil
	}
	at := *ce
	at.Place = place
	return &at
}

// Fleet recalls the machine of every entity of a derived protocol at a
// state cap (0 = the default), given each entity's content address as
// EntityKeys returns them. Nothing is explored: rows fill as sessions visit
// them.
func (c *Cache) Fleet(entities map[int]*lotos.Spec, keys map[int]string, maxStates int) *Fleet {
	f := &Fleet{Machines: make(map[int]*Machine, len(entities)), Errors: map[int]*CompileError{}}
	for place, sp := range entities {
		m, _, err := c.machine(place, sp, keys[place], maxStates)
		if err != nil {
			f.Errors[place] = err
			continue
		}
		f.Machines[place] = m
	}
	return f
}
