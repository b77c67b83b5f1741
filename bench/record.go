package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Base states what a ratio or summary was computed from.
	Base string `json:"base,omitempty"`
}

// metricDef defines one metric: its name, unit and how a run computes it.
type metricDef[T any] struct {
	name, unit string
	value      func(T) (float64, string) // value and its base ("" when plain)
}

// e2eInput is what the end-to-end metrics are computed from.
type e2eInput struct {
	w workload
	o *outcome
}

// endToEnd are the metrics a user of the system sees, computed from the
// untraced measurement over the whole run. Every time is taken at the
// reference host's speed (see host.go): divided by the host's slowness
// when it was measured, and a throughput computed from the times so
// divided. The base states the value as measured.
var endToEnd = []metricDef[e2eInput]{
	{"setup_s", "s", func(in e2eInput) (float64, string) {
		ref := times(in.o.host.atReference(in.o.setups))
		return median(ref) / 1e3, fmt.Sprintf("median of %d setups; %.6g s as measured, host slowness %.4f",
			len(ref), median(times(in.o.setups))/1e3, in.o.host.slowness())
	}},
	{"op_gmean_ms", "ms", func(in e2eInput) (float64, string) {
		meds := kindMedians(in.o.host.atReference(in.o.ops))
		return finite(geomean(meds)), fmt.Sprintf("geometric mean of %d kinds' medians over %d ops; %.6g ms as measured, host slowness %.4f",
			len(meds), len(in.o.ops), geomean(kindMedians(in.o.ops)), in.o.host.slowness())
	}},
	{"op_tail_ms", "ms", func(in e2eInput) (float64, string) {
		ops := in.o.host.atReference(in.o.ops)
		asMeasured := func(v float64) string {
			return fmt.Sprintf("%.6g ms as measured, host slowness %.4f", v, in.o.host.slowness())
		}
		if in.w.tailPct == 100 {
			meds := kindMedians(ops)
			return finite(meds[len(meds)-1]), fmt.Sprintf("slowest of %d kinds' medians over %d ops; ", len(meds), len(ops)) +
				asMeasured(slices.Max(kindMedians(in.o.ops)))
		}
		v, beyond := tail(sortedCopy(times(ops)), in.w.tailPct)
		raw, _ := tail(sortedCopy(times(in.o.ops)), in.w.tailPct)
		return finite(v), fmt.Sprintf("p%g of %d ops, %d beyond it (the highest percentile with 10 beyond is p%g); ",
			in.w.tailPct, len(ops), beyond, highestTail(len(ops))) + asMeasured(raw)
	}},
	{"ops_per_s", "1/s", func(in e2eInput) (float64, string) {
		done := 0
		for _, s := range in.o.ops {
			if !math.IsInf(s.ms, 1) {
				done++
			}
		}
		busy := sum(times(in.o.host.atReference(in.o.busy))) / 1e3
		raw := sum(times(in.o.busy)) / 1e3
		return ratio(float64(done), busy), fmt.Sprintf("%d ops / %.3f s busy at reference speed; %.6g/s as measured, host slowness %.4f",
			done, busy, ratio(float64(done), raw), in.o.host.slowness())
	}},
	{"peak_rss_mb", "MB", func(in e2eInput) (float64, string) {
		return float64(in.o.rssKB) / 1024, "VmHWM"
	}},
}

// kindMedians returns the median time of each kind of sample, ascending.
func kindMedians(ss []sample) []float64 {
	byKind := map[string][]float64{}
	for _, s := range ss {
		byKind[s.kind] = append(byKind[s.kind], s.ms)
	}
	var meds []float64
	for _, xs := range byKind {
		meds = append(meds, median(xs))
	}
	sort.Float64s(meds)
	return meds
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// calls and meanMS read one span name's aggregate.
func calls(s traceSummary, name string) float64 { return float64(s.layer(name).Calls) }

func meanMS(s traceSummary, name string) float64 {
	l := s.layer(name)
	return ratio(l.TotalMS, float64(l.Calls))
}

// perCall divides a counter by a span name's call count.
func perCall(s traceSummary, counter, name string) (float64, string) {
	c := s.Counters[counter]
	n := calls(s, name)
	return ratio(c, n), fmt.Sprintf("%g / %g calls", c, n)
}

// exploreSpans are the product-exploration calls.
var exploreSpans = []string{"compose.Explore", "compose.ExploreStatsOnly"}

func explore(s traceSummary) layerStats {
	var out layerStats
	for _, n := range exploreSpans {
		l := s.layer(n)
		out.Calls += l.Calls
		out.TotalMS += l.TotalMS
		out.Bytes += l.Bytes
		out.Objects += l.Objects
		out.GCCPU += l.GCCPU
		out.CPU += l.CPU
	}
	return out
}

func plain(v float64) (float64, string) { return v, "" }

func gauge(name string) func(traceSummary) (float64, string) {
	return func(s traceSummary) (float64, string) { return plain(s.Counters[name]) }
}

func bucketed(name string) func(traceSummary) (float64, string) {
	return func(s traceSummary) (float64, string) {
		return s.Counters[name], "interpolated in the daemon's latency histogram"
	}
}

// p50US is the median duration of one span name's calls in microseconds:
// the median, not the mean, so one cold first call does not dominate the
// few calls a setup makes.
func p50US(name string) func(traceSummary) (float64, string) {
	return func(s traceSummary) (float64, string) {
		l := s.layer(name)
		return 1e3 * l.P50MS, fmt.Sprintf("median of %d calls", l.Calls)
	}
}

// perLayer are the metrics of single layers, computed from a traced run's
// spans and counters. A layer the workload never calls reads 0.
var perLayer = []metricDef[traceSummary]{
	{"lotos.parse_us", "us", p50US("lotos.Parse")},
	{"apf.us", "us", p50US("apf.TransformSpec")},
	{"attr.us", "us", p50US("attr.Analyze")},
	{"core.project_us", "us", func(s traceSummary) (float64, string) {
		return 1e3 * max(0, s.layer("core.Derive").P50MS-s.layer("apf.TransformSpec").P50MS-s.layer("attr.Analyze").P50MS),
			"medians: core.Derive - apf - attr"
	}},
	{"core.messages", "count", func(s traceSummary) (float64, string) { return perCall(s, "core.messages", "core.Derive") }},
	{"fsm.compile_ms", "ms", func(s traceSummary) (float64, string) { return plain(meanMS(s, "fsm.CompileEntities")) }},
	{"fsm.fallbacks", "count", func(s traceSummary) (float64, string) { return perCall(s, "fsm.fallbacks", "setup") }},
	{"fsm.compiled_ratio", "ratio", func(s traceSummary) (float64, string) {
		c, f := s.Counters["fsm.compiled"], s.Counters["fsm.fallbacks"]
		return ratio(c, c+f), fmt.Sprintf("%g compiled / %g entities", c, c+f)
	}},
	{"lts.service_explore_ms", "ms", func(s traceSummary) (float64, string) { return plain(meanMS(s, "lts.ExploreSpec")) }},
	{"lts.service_states", "count", func(s traceSummary) (float64, string) {
		return perCall(s, "lts.service_states", "lts.ExploreSpec")
	}},
	{"compose.explore_ms", "ms", func(s traceSummary) (float64, string) {
		e := explore(s)
		return ratio(e.TotalMS, float64(e.Calls)), fmt.Sprintf("%d explorations", e.Calls)
	}},
	{"compose.states", "count", func(s traceSummary) (float64, string) {
		e := explore(s)
		return ratio(s.Counters["compose.states"], float64(e.Calls)), fmt.Sprintf("%d explorations", e.Calls)
	}},
	{"compose.states_per_s", "1/s", func(s traceSummary) (float64, string) {
		st, e := s.Counters["compose.states"], explore(s)
		return ratio(st, e.TotalMS/1e3), fmt.Sprintf("%g states / %.3f s", st, e.TotalMS/1e3)
	}},
	{"compose.alloc_bytes_per_state", "B/state", func(s traceSummary) (float64, string) {
		st, e := s.Counters["compose.states"], explore(s)
		return ratio(e.Bytes, st), fmt.Sprintf("%g B / %g states", e.Bytes, st)
	}},
	{"compose.allocs_per_state", "allocs/state", func(s traceSummary) (float64, string) {
		st, e := s.Counters["compose.states"], explore(s)
		return ratio(e.Objects, st), fmt.Sprintf("%g allocs / %g states", e.Objects, st)
	}},
	{"compose.gc_cpu_share", "ratio", func(s traceSummary) (float64, string) {
		e := explore(s)
		return ratio(e.GCCPU, e.CPU), fmt.Sprintf("%.3f GC CPU-s / %.3f CPU-s", e.GCCPU, e.CPU)
	}},
	{"compose.ample_hits", "count", func(s traceSummary) (float64, string) {
		return ratio(s.Counters["compose.ample_hits"], float64(explore(s).Calls)), "per exploration"
	}},
	{"compose.orbits_collapsed", "count", func(s traceSummary) (float64, string) {
		return ratio(s.Counters["compose.orbits_collapsed"], float64(explore(s).Calls)), "per exploration"
	}},
	{"compose.spilled_bytes", "B", func(s traceSummary) (float64, string) {
		return ratio(s.Counters["compose.spilled_bytes"], float64(explore(s).Calls)), "per exploration"
	}},
	{"compose.peak_index_bytes", "B", gauge("compose.peak_index_bytes")},
	{"compose.truncated_cells", "count", func(s traceSummary) (float64, string) {
		return ratio(s.Counters["compose.truncated"], s.Counters["passes"]), "per pass"
	}},
	{"equiv.trace_ms", "ms", func(s traceSummary) (float64, string) {
		t := s.layer("equiv.WeakTraceEquivalent").TotalMS + s.layer("equiv.TraceDiff").TotalMS + s.layer("lts.Graph.Deadlocks").TotalMS
		n := calls(s, "equiv.WeakTraceEquivalent")
		return ratio(t, n), fmt.Sprintf("trace equivalence + diff + deadlocks, %g checks", n)
	}},
	{"equiv.bisim_ms", "ms", func(s traceSummary) (float64, string) { return plain(meanMS(s, "equiv.WeakBisimilarStats")) }},
	{"equiv.saturate_ms", "ms", func(s traceSummary) (float64, string) {
		return perCall(s, "equiv.saturate_ms", "equiv.WeakBisimilarStats")
	}},
	{"equiv.refine_ms", "ms", func(s traceSummary) (float64, string) {
		return perCall(s, "equiv.refine_ms", "equiv.WeakBisimilarStats")
	}},
	{"equiv.rounds", "count", func(s traceSummary) (float64, string) {
		return perCall(s, "equiv.rounds", "equiv.WeakBisimilarStats")
	}},
	{"witness.ms", "ms", func(s traceSummary) (float64, string) {
		n := s.Counters["witness.extractions"]
		return ratio(s.Counters["witness.ms"], n), fmt.Sprintf("compose.Verify - compose.Verify{NoWitness}, %g witnesses", n)
	}},
	{"witness.steps", "count", func(s traceSummary) (float64, string) {
		n := s.Counters["witness.extractions"]
		return ratio(s.Counters["witness.steps"], n), fmt.Sprintf("%g witnesses", n)
	}},
	{"replay.ms", "ms", func(s traceSummary) (float64, string) { return plain(meanMS(s, "sim.ReplayWitness")) }},
	{"replay.match_ratio", "ratio", func(s traceSummary) (float64, string) {
		m, n := s.Counters["replay.matched"], calls(s, "sim.ReplayWitness")
		return ratio(m, n), fmt.Sprintf("%g matched / %g replays", m, n)
	}},
	{"sim.run_us", "us", func(s traceSummary) (float64, string) { return plain(1e3 * meanMS(s, "sim.Run")) }},
	{"sim.steps_per_s", "1/s", func(s traceSummary) (float64, string) {
		ev, run := s.Counters["sim.events"], s.layer("sim.Run").TotalMS/1e3
		return ratio(ev, run), fmt.Sprintf("%g events / %.3f s", ev, run)
	}},
	{"sim.allocs_per_step", "allocs/step", func(s traceSummary) (float64, string) {
		ev, obj := s.Counters["sim.events"], s.layer("sim.Run").Objects
		return ratio(obj, ev), fmt.Sprintf("%g allocs / %g events", obj, ev)
	}},
	{"check.ms", "ms", func(s traceSummary) (float64, string) { return plain(meanMS(s, "sim.CheckTrace")) }},
	{"check.us_per_event", "us/event", func(s traceSummary) (float64, string) {
		ev, chk := s.Counters["sim.events"], s.layer("sim.CheckTrace").TotalMS
		return ratio(1e3*chk, ev), fmt.Sprintf("%.3f ms / %g events", chk, ev)
	}},
	{"check.share", "ratio", func(s traceSummary) (float64, string) {
		run, chk := s.layer("sim.Run").TotalMS, s.layer("sim.CheckTrace").TotalMS
		return ratio(chk, run+chk), fmt.Sprintf("%.3f ms check / %.3f ms run+check", chk, run+chk)
	}},
	{"service.server_p50_ms.derive", "ms", bucketed("service.server_p50_ms.derive")},
	{"service.server_p50_ms.verify", "ms", bucketed("service.server_p50_ms.verify")},
	{"service.cache_hit_ratio", "ratio", func(s traceSummary) (float64, string) {
		h, n := s.Counters["service.cache_hits"], s.Counters["service.cache_lookups"]
		return ratio(h, n), fmt.Sprintf("%g hits / %g lookups", h, n)
	}},
	{"service.evictions", "count", gauge("service.evictions")},
	{"service.pool_timeouts", "count", gauge("service.pool_timeouts")},
	{"service.cpu_ms_per_req", "ms", func(s traceSummary) (float64, string) {
		c, n := s.Counters["service.cpu_ms"], s.Counters["service.requests"]
		return ratio(c, n), fmt.Sprintf("%g CPU-ms / %g requests, abandoned included", c, n)
	}},
	{"service.gc_pause_ms", "ms", gauge("service.gc_pause_ms")},
	{"service.heap_inuse_mb", "MB", gauge("service.heap_inuse_mb")},
	{"loadgen.cpu_share", "ratio", func(s traceSummary) (float64, string) {
		return s.Counters["loadgen.cpu_share"], "client CPU / client + daemon CPU"
	}},
	{"host.slowness", "ratio", func(s traceSummary) (float64, string) {
		return s.Counters["host.slowness"], fmt.Sprintf("median reference chunk / %g ms", refNominalMS)
	}},
	{"trace.overhead_ratio", "ratio", func(s traceSummary) (float64, string) {
		return s.Counters["trace.overhead_ratio"], "traced / untraced op time (means; daemon-mix: medians)"
	}},
	{"trace.coverage", "ratio", func(s traceSummary) (float64, string) {
		return s.Coverage, "layer spans / operation time"
	}},
}

// evaluate computes every metric of a table.
func evaluate[T any](defs []metricDef[T], in T) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, base := d.value(in)
		out[d.name] = metric{Value: v, Unit: d.unit, Base: base}
	}
	return out
}

// record is one workload run, as written with -out and read by compare.
type record struct {
	Workload  string            `json:"workload"`
	Trace     bool              `json:"trace"`
	Meta      meta              `json:"meta"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Layers    map[string]metric `json:"layers,omitempty"`
	Notes     map[string]any    `json:"notes,omitempty"`
	// SpanStats aggregates the spans by name, with each name's self time.
	SpanStats map[string]*layerStats `json:"span_stats,omitempty"`
	Spans     []span                 `json:"spans,omitempty"`
}

// summaryLine is the last line of a workload run's standard output.
type summaryLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newRecord(w workload, cfg config, o *outcome) record {
	r := record{
		Workload:  w.name,
		Trace:     cfg.trace,
		Meta:      newMeta(cfg.seed, cfg.seconds),
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Failures:  o.failures,
		Metrics:   evaluate(endToEnd, e2eInput{w, o}),
		Notes:     o.notes,
	}
	r.Meta.Measured = sum(times(o.busy)) / 1e3
	r.Meta.SetupReps = len(o.setups)
	if o.trace != nil {
		o.trace.Counters["host.slowness"] = o.host.slowness()
		r.Layers = evaluate(perLayer, *o.trace)
		r.SpanStats = o.trace.Layers
		r.Spans = o.trace.Spans
	}
	return r
}

// line is the run's summary: end-to-end metrics, or per-layer ones for a
// traced run.
func (r record) line() summaryLine {
	src := r.Metrics
	if r.Trace {
		src = r.Layers
	}
	out := summaryLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]lineMetric{}}
	for k, m := range src {
		out.Metrics[k] = lineMetric{m.Value, m.Unit}
	}
	return out
}
