package protoderive

import (
	"repro/internal/compose"
	"repro/internal/fsm"
)

// ArtifactCache is the content-addressed cache of entity machines
// (fsm.Cache), the one per-entity artifact of the pipeline: Simulate,
// Replay and Compile recall its machines, and compositional verification
// reads their minimized layers. Entries are keyed by SHA-256 of the
// normalized entity behaviour and the effective state cap — never by which
// service specification produced the entity — so two specifications
// sharing one entity share the work, and editing one entity of an n-place
// specification rebuilds only that entity.
//
// An ArtifactCache is safe for concurrent use and is meant to be shared: one
// cache per daemon, handed to every Protocol (see Protocol.UseArtifacts). A
// Protocol with none attached keeps a private one.
type ArtifactCache = fsm.Cache

// ArtifactStats is a point-in-time snapshot of the cache's counters.
type ArtifactStats = fsm.CacheStats

// DefaultArtifactEntries bounds the artifact cache when the caller passes no
// capacity.
const DefaultArtifactEntries = fsm.DefaultCacheEntries

// NewArtifactCache returns an empty cache bounded to the given number of
// entries (<= 0 selects DefaultArtifactEntries).
func NewArtifactCache(entries int) *ArtifactCache { return fsm.NewCache(entries) }

// UseArtifacts attaches a shared artifact cache to the protocol: fleets
// (Simulate, Compile, Replay) and compositional Verify, VerifyMatrix and
// Optimize calls recall per-entity machines through it instead of the
// protocol's private cache. A protocol fixes its cache at the first
// UseArtifacts call or at its first use, whichever comes first; attaching
// a different cache after that panics, since the protocol's verifier would
// keep the old cache while its fleets read the new one. Re-attaching the
// fixed cache is a no-op; a nil cache panics.
func (p *Protocol) UseArtifacts(c *ArtifactCache) {
	if c == nil {
		panic("protoderive: UseArtifacts with a nil cache")
	}
	p.artsOnce.Do(func() { p.arts = c })
	if p.arts != c {
		panic("protoderive: UseArtifacts after the protocol fixed a different artifact cache")
	}
}

// EntityQuotientStat reports one entity's quotient-before-compose numbers
// inside a compositional verification report.
type EntityQuotientStat = compose.EntityQuotientStat

// CompositionalReport describes one compositional verification: the
// per-entity quotients, the product-over-quotients size, the per-phase wall
// times, the artifact reuse ratio, and — when the verdict came from the
// monolithic fallback — the reason.
type CompositionalReport = compose.CompositionalStats
