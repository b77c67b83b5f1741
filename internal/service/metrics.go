package service

import (
	"runtime"
	"sort"
	"sync"
	"time"

	protoderive "repro"
)

// latencyBucketsMS are the upper bounds (milliseconds, inclusive) of the
// fixed latency histogram. The last bucket is open-ended.
var latencyBucketsMS = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// histogram is a fixed-bucket latency histogram. It is guarded by the
// owning Metrics' mutex.
type histogram struct {
	counts []uint64 // len(latencyBucketsMS)+1, last = overflow
	sum    float64  // total milliseconds
	total  uint64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]uint64, len(latencyBucketsMS)+1)}
}

func (h *histogram) observe(ms float64) {
	i := sort.SearchFloat64s(latencyBucketsMS, ms)
	h.counts[i]++
	h.sum += ms
	h.total++
}

// quantile estimates the q-quantile (0 < q < 1) from the histogram by
// attributing each bucket's mass to its upper bound (the overflow bucket to
// twice the last bound). It is an upper estimate, which is the useful
// direction for latency SLOs.
func (h *histogram) quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	rank := uint64(q * float64(h.total))
	if rank >= h.total {
		rank = h.total - 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen > rank {
			if i < len(latencyBucketsMS) {
				return latencyBucketsMS[i]
			}
			return 2 * latencyBucketsMS[len(latencyBucketsMS)-1]
		}
	}
	return 2 * latencyBucketsMS[len(latencyBucketsMS)-1]
}

// EndpointStats is the JSON snapshot of one endpoint's counters.
type EndpointStats struct {
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`
	InFlight int64  `json:"inFlight"`
	// Latency histogram: parallel arrays of upper bounds (ms) and counts;
	// the final count is the overflow bucket.
	LatencyBucketsMS []float64 `json:"latencyBucketsMs"`
	LatencyCounts    []uint64  `json:"latencyCounts"`
	LatencyMeanMS    float64   `json:"latencyMeanMs"`
	LatencyP50MS     float64   `json:"latencyP50Ms"`
	LatencyP95MS     float64   `json:"latencyP95Ms"`
	LatencyP99MS     float64   `json:"latencyP99Ms"`
}

// endpointMetrics is the live (locked) form behind EndpointStats.
type endpointMetrics struct {
	requests uint64
	errors   uint64
	inFlight int64
	lat      *histogram
}

// EquivCounters aggregates the equivalence engine's work across every
// verification the daemon actually computed (cache hits and joined
// singleflight calls do not re-count).
type EquivCounters struct {
	// Checks counts completed weak-bisimulation checks.
	Checks uint64 `json:"checks"`
	// TauSCCs, SaturationEdges and RefinementRounds sum the engine's
	// per-check counters.
	TauSCCs          uint64 `json:"tauSccs"`
	SaturationEdges  uint64 `json:"saturationEdges"`
	RefinementRounds uint64 `json:"refinementRounds"`
	// SaturateMS and RefineMS sum wall time per engine phase.
	SaturateMS float64 `json:"saturateMs"`
	RefineMS   float64 `json:"refineMs"`
}

// CompileCounters aggregates the entity minimizations of every derivation
// the daemon computed with the compile option (cache hits and joined
// singleflight calls do not re-count).
type CompileCounters struct {
	// Requests counts computed derivations that asked for compilation.
	Requests uint64 `json:"requests"`
	// CompiledEntities counts entities whose minimized layer closed under
	// the cap; InterpretedEntities counts the ones whose state space
	// overflowed it (compile.fallback). Every entity still runs on its
	// machine either way; the key keeps its name for the wire contract.
	CompiledEntities    uint64 `json:"compiledEntities"`
	InterpretedEntities uint64 `json:"interpretedEntities"`
	// States and Transitions sum the minimized machine sizes.
	States      uint64 `json:"states"`
	Transitions uint64 `json:"transitions"`
}

// CompositionalCounters aggregates the quotient-before-compose pipeline's
// work across every verification the daemon computed with the compositional
// option (cache hits and joined singleflight calls do not re-count).
type CompositionalCounters struct {
	// Verifications counts computed compositional verifications;
	// Fallbacks the ones whose verdict came from the monolithic path.
	Verifications uint64 `json:"verifications"`
	Fallbacks     uint64 `json:"fallbacks"`
	// EntitiesBuilt / EntitiesReused count entity quotients explored fresh
	// versus recalled from the artifact cache.
	EntitiesBuilt  uint64 `json:"entitiesBuilt"`
	EntitiesReused uint64 `json:"entitiesReused"`
	// BuildMS sums entity explore+quotient wall time; ProductMS sums
	// product-over-quotients exploration time.
	BuildMS   float64 `json:"buildMs"`
	ProductMS float64 `json:"productMs"`
}

// ReductionCounters aggregates the state-space reductions' work across every
// verification the daemon computed (cache hits and joined singleflight calls
// do not re-count).
type ReductionCounters struct {
	// Verifications counts computed verifications that reported reduction
	// statistics; SymmetryActive the ones where interchangeable instance
	// columns were actually detected.
	Verifications  uint64 `json:"verifications"`
	SymmetryActive uint64 `json:"symmetryActive"`
	// OrbitsCollapsed sums states folded onto another orbit representative;
	// AmpleHits sums states reduced to one entity's ample transition set.
	OrbitsCollapsed uint64 `json:"orbitsCollapsed"`
	AmpleHits       uint64 `json:"ampleHits"`
	// SpillRuns / SpilledBytes sum the out-of-core visited-index activity.
	SpillRuns    uint64 `json:"spillRuns"`
	SpilledBytes uint64 `json:"spilledBytes"`
	// Fallbacks counts symmetry-reduced failures re-verified unreduced for
	// their concrete counterexample.
	Fallbacks uint64 `json:"fallbacks"`
}

// ReuseRatio is the fraction of entity artifacts recalled from cache.
func (c CompositionalCounters) ReuseRatio() float64 {
	total := c.EntitiesBuilt + c.EntitiesReused
	if total == 0 {
		return 0
	}
	return float64(c.EntitiesReused) / float64(total)
}

// RuntimeStats is a point-in-time snapshot of the Go runtime's health
// gauges, exported on the /metrics page so a client watching the daemon
// (the benchmark's daemon-mix workload scrapes it) sees its memory and
// scheduler pressure alongside the latency histograms.
type RuntimeStats struct {
	// Goroutines is the live goroutine count.
	Goroutines int `json:"goroutines"`
	// GOMAXPROCS is the scheduler's processor limit.
	GOMAXPROCS int `json:"gomaxprocs"`
	// HeapAllocBytes is live heap memory; HeapInuseBytes the spans holding
	// it; HeapSysBytes the heap address space held from the OS;
	// StackInuseBytes the goroutine stack memory.
	HeapAllocBytes  uint64 `json:"heapAllocBytes"`
	HeapInuseBytes  uint64 `json:"heapInuseBytes"`
	HeapSysBytes    uint64 `json:"heapSysBytes"`
	StackInuseBytes uint64 `json:"stackInuseBytes"`
	// NextGCBytes is the heap-size target of the next collection.
	NextGCBytes uint64 `json:"nextGCBytes"`
	// NumGC counts completed collections; GCPauseTotalMS sums every
	// stop-the-world pause since process start and GCPauseLastMS is the
	// most recent one.
	NumGC          uint32  `json:"numGC"`
	GCPauseTotalMS float64 `json:"gcPauseTotalMs"`
	GCPauseLastMS  float64 `json:"gcPauseLastMs"`
}

// readRuntimeStats samples the runtime gauges.
func readRuntimeStats() RuntimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out := RuntimeStats{
		Goroutines:      runtime.NumGoroutine(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		HeapAllocBytes:  ms.HeapAlloc,
		HeapInuseBytes:  ms.HeapInuse,
		HeapSysBytes:    ms.HeapSys,
		StackInuseBytes: ms.StackInuse,
		NextGCBytes:     ms.NextGC,
		NumGC:           ms.NumGC,
		GCPauseTotalMS:  float64(ms.PauseTotalNs) / 1e6,
	}
	if ms.NumGC > 0 {
		out.GCPauseLastMS = float64(ms.PauseNs[(ms.NumGC+255)%256]) / 1e6
	}
	return out
}

// Metrics aggregates the daemon's counters: per-endpoint request totals,
// error totals, in-flight gauges, latency histograms, and the equivalence
// engine's phase counters. All methods are safe for concurrent use.
type Metrics struct {
	mu            sync.Mutex
	endpoints     map[string]*endpointMetrics
	equiv         EquivCounters
	compile       CompileCounters
	compositional CompositionalCounters
	reduction     ReductionCounters
	start         time.Time
}

// RecordReduction folds one verification's reduction statistics into the
// aggregate.
func (m *Metrics) RecordReduction(rep *protoderive.ReductionReport) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reduction.Verifications++
	if rep.SymmetryColumns > 0 {
		m.reduction.SymmetryActive++
	}
	m.reduction.OrbitsCollapsed += uint64(rep.OrbitsCollapsed)
	m.reduction.AmpleHits += uint64(rep.AmpleHits)
	m.reduction.SpillRuns += uint64(rep.SpillRuns)
	m.reduction.SpilledBytes += uint64(rep.SpilledBytes)
	if rep.Fallback != "" {
		m.reduction.Fallbacks++
	}
}

// RecordCompositional folds one compositional verification's pipeline report
// into the aggregate.
func (m *Metrics) RecordCompositional(rep *protoderive.CompositionalReport) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.compositional.Verifications++
	if rep.Fallback != "" {
		m.compositional.Fallbacks++
	}
	m.compositional.EntitiesBuilt += uint64(len(rep.Entities) - rep.Reused)
	m.compositional.EntitiesReused += uint64(rep.Reused)
	m.compositional.BuildMS += float64(rep.BuildNanos) / 1e6
	m.compositional.ProductMS += float64(rep.ProductNanos) / 1e6
}

// RecordCompile folds one compile report into the aggregate.
func (m *Metrics) RecordCompile(compiled, overflowed, states, transitions int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.compile.Requests++
	m.compile.CompiledEntities += uint64(compiled)
	m.compile.InterpretedEntities += uint64(overflowed)
	m.compile.States += uint64(states)
	m.compile.Transitions += uint64(transitions)
}

// RecordEquiv folds one equivalence check's engine counters into the
// aggregate.
func (m *Metrics) RecordEquiv(tauSCCs, saturationEdges, rounds int, saturateNanos, refineNanos int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.equiv.Checks++
	m.equiv.TauSCCs += uint64(tauSCCs)
	m.equiv.SaturationEdges += uint64(saturationEdges)
	m.equiv.RefinementRounds += uint64(rounds)
	m.equiv.SaturateMS += float64(saturateNanos) / 1e6
	m.equiv.RefineMS += float64(refineNanos) / 1e6
}

// newMetrics returns an empty metrics registry.
func newMetrics() *Metrics {
	return &Metrics{endpoints: map[string]*endpointMetrics{}, start: time.Now()}
}

func (m *Metrics) endpoint(name string) *endpointMetrics {
	ep := m.endpoints[name]
	if ep == nil {
		ep = &endpointMetrics{lat: newHistogram()}
		m.endpoints[name] = ep
	}
	return ep
}

// Begin records the start of a request on the named endpoint and returns a
// completion callback taking whether the request failed. The callback must
// be invoked exactly once.
func (m *Metrics) Begin(name string) func(failed bool) {
	m.mu.Lock()
	ep := m.endpoint(name)
	ep.requests++
	ep.inFlight++
	m.mu.Unlock()
	t0 := time.Now()
	return func(failed bool) {
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		m.mu.Lock()
		ep.inFlight--
		if failed {
			ep.errors++
		}
		ep.lat.observe(ms)
		m.mu.Unlock()
	}
}

// MetricsSnapshot is the JSON form of the registry.
type MetricsSnapshot struct {
	UptimeSeconds float64                  `json:"uptimeSeconds"`
	Endpoints     map[string]EndpointStats `json:"endpoints"`
	// Equiv aggregates the equivalence engine's counters over every
	// computed verification.
	Equiv EquivCounters `json:"equiv"`
	// Compile aggregates the FSM compiler's counters over every computed
	// derivation that requested compilation.
	Compile CompileCounters `json:"compile"`
	// Compositional aggregates the quotient-before-compose pipeline's
	// counters over every computed compositional verification, including
	// the entity-artifact reuse ratio.
	Compositional           CompositionalCounters `json:"compositional"`
	CompositionalReuseRatio float64               `json:"compositionalReuseRatio"`
	// Reduction aggregates the state-space reductions' counters (orbits
	// collapsed, ample hits, spill activity) over every computed
	// verification.
	Reduction ReductionCounters `json:"reduction"`
}

// Snapshot returns a consistent copy of every counter.
func (m *Metrics) Snapshot() MetricsSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := MetricsSnapshot{
		UptimeSeconds:           time.Since(m.start).Seconds(),
		Endpoints:               make(map[string]EndpointStats, len(m.endpoints)),
		Equiv:                   m.equiv,
		Compile:                 m.compile,
		Compositional:           m.compositional,
		CompositionalReuseRatio: m.compositional.ReuseRatio(),
		Reduction:               m.reduction,
	}
	for name, ep := range m.endpoints {
		st := EndpointStats{
			Requests:         ep.requests,
			Errors:           ep.errors,
			InFlight:         ep.inFlight,
			LatencyBucketsMS: latencyBucketsMS,
			LatencyCounts:    append([]uint64(nil), ep.lat.counts...),
			LatencyP50MS:     ep.lat.quantile(0.50),
			LatencyP95MS:     ep.lat.quantile(0.95),
			LatencyP99MS:     ep.lat.quantile(0.99),
		}
		if ep.lat.total > 0 {
			st.LatencyMeanMS = ep.lat.sum / float64(ep.lat.total)
		}
		out.Endpoints[name] = st
	}
	return out
}
