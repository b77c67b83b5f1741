package main

import (
	"runtime/metrics"
	"sync"
	"time"
)

// The tracer records one span around each call the benchmark makes into a
// layer's public function. A span has a name, start, end and parent; every
// span of one operation shares the operation's id. Spans also carry the
// heap bytes and objects allocated and the GC and total CPU time spent while
// they were open, read from runtime/metrics. These are process-wide
// counters, so under concurrent operations (daemon-mix) a span's allocation
// figures include the other worker's. Spans stay in memory until the run
// ends.

// span is one recorded interval.
type span struct {
	Name    string  `json:"name"`
	Op      int     `json:"op"`
	Parent  int     `json:"parent"` // index of the parent span, -1 for an operation root
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	Bytes   uint64  `json:"bytes"`
	Objects uint64  `json:"objects"`
	GCCPU   float64 `json:"gc_cpu_s"`
	CPU     float64 `json:"cpu_s"`
	open    [4]float64
}

// tracer collects spans and named counters. The zero value is not usable;
// a nil *tracer records nothing, so workload code calls it unconditionally.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	spans    []span
	ops      int
	counters map[string]float64
	samples  []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{
		t0:       time.Now(),
		counters: map[string]float64{},
		samples: []metrics.Sample{
			{Name: "/gc/heap/allocs:bytes"},
			{Name: "/gc/heap/allocs:objects"},
			{Name: "/cpu/classes/gc/total:cpu-seconds"},
			{Name: "/cpu/classes/total:cpu-seconds"},
		},
	}
}

// readLocked samples the runtime counters. Caller holds t.mu.
func (t *tracer) readLocked() [4]float64 {
	metrics.Read(t.samples)
	var out [4]float64
	for i, s := range t.samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

// spanRef is a handle on an open span. Methods on a nil handle do nothing.
type spanRef struct {
	t   *tracer
	idx int
}

func (t *tracer) start(name string, op, parent int) *spanRef {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{Name: name, Op: op, Parent: parent, open: t.readLocked()}
	s.StartUS = float64(time.Since(t.t0).Nanoseconds()) / 1e3
	t.spans = append(t.spans, s)
	return &spanRef{t: t, idx: len(t.spans) - 1}
}

// op opens the root span of a new operation.
func (t *tracer) op(name string) *spanRef {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.ops++
	id := t.ops
	t.mu.Unlock()
	return t.start(name, id, -1)
}

// child opens a span caused by r.
func (r *spanRef) child(name string) *spanRef {
	if r == nil {
		return nil
	}
	r.t.mu.Lock()
	op := r.t.spans[r.idx].Op
	r.t.mu.Unlock()
	return r.t.start(name, op, r.idx)
}

// end closes the span and returns its duration in milliseconds.
func (r *spanRef) end() float64 {
	if r == nil {
		return 0
	}
	t := r.t
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[r.idx]
	s.EndUS = float64(time.Since(t.t0).Nanoseconds()) / 1e3
	now := t.readLocked()
	s.Bytes = uint64(now[0] - s.open[0])
	s.Objects = uint64(now[1] - s.open[1])
	s.GCCPU = now[2] - s.open[2]
	s.CPU = now[3] - s.open[3]
	return (s.EndUS - s.StartUS) / 1e3
}

// count adds v to the named counter.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counters[name] += v
	t.mu.Unlock()
}

// gauge sets the named counter to v.
func (t *tracer) gauge(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counters[name] = v
	t.mu.Unlock()
}

// layerStats aggregates the spans of one name.
type layerStats struct {
	Calls   int     `json:"calls"`
	TotalMS float64 `json:"total_ms"` // summed duration
	P50MS   float64 `json:"p50_ms"`   // median duration
	SelfMS  float64 `json:"self_ms"`  // summed duration minus the time child spans cover
	Bytes   float64 `json:"alloc_bytes"`
	Objects float64 `json:"alloc_objects"`
	GCCPU   float64 `json:"gc_cpu_s"`
	CPU     float64 `json:"cpu_s"`
}

// traceSummary is what a traced run reports: per-name aggregates, the
// counters, and the share of operation time that layer spans cover.
type traceSummary struct {
	Layers   map[string]*layerStats
	Counters map[string]float64
	// Coverage is the summed duration of the direct children of every
	// operation root over the summed duration of the roots.
	Coverage float64
	Spans    []span
}

func (t *tracer) summary() traceSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	sum := traceSummary{Layers: map[string]*layerStats{}, Counters: map[string]float64{}, Spans: t.spans}
	for k, v := range t.counters {
		sum.Counters[k] = v
	}
	// Children of one parent run one after another, so the time they cover
	// is the sum of their durations.
	childMS := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childMS[s.Parent] += (s.EndUS - s.StartUS) / 1e3
		}
	}
	var rootMS, coveredMS float64
	durs := map[string][]float64{}
	for i, s := range t.spans {
		dur := (s.EndUS - s.StartUS) / 1e3
		durs[s.Name] = append(durs[s.Name], dur)
		ls := sum.Layers[s.Name]
		if ls == nil {
			ls = &layerStats{}
			sum.Layers[s.Name] = ls
		}
		ls.Calls++
		ls.TotalMS += dur
		ls.SelfMS += dur - childMS[i]
		ls.Bytes += float64(s.Bytes)
		ls.Objects += float64(s.Objects)
		ls.GCCPU += s.GCCPU
		ls.CPU += s.CPU
		if s.Parent < 0 {
			rootMS += dur
			coveredMS += childMS[i]
		}
	}
	for name, ds := range durs {
		sum.Layers[name].P50MS = median(ds)
	}
	if rootMS > 0 {
		sum.Coverage = coveredMS / rootMS
	}
	return sum
}

// layer returns the aggregate of the named spans (zero when none ran).
func (s traceSummary) layer(name string) layerStats {
	if ls := s.Layers[name]; ls != nil {
		return *ls
	}
	return layerStats{}
}
