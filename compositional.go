package protoderive

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

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
// protocol's private cache. Call it once, before the protocol's first use.
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
