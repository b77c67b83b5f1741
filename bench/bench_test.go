package main

import (
	"io"
	"testing"
)

// TestSmoke runs one reduced, traced pass of every workload: fault-matrix
// at capacity 1 without the multi* specs, a 5-instance relay census, a second of
// corpus-only sim-check and a second of daemon-mix against an in-process
// server. A traced run also measures the end-to-end metrics (over its
// untraced first third), so one run per workload checks that every metric
// BENCHMARK.json names is emitted.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec, err := loadBenchmarkSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w, ok := findWorkload(sw.Name)
		if !ok {
			t.Errorf("BENCHMARK.json workload %s is unknown", sw.Name)
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			r, err := runOne(w, config{seed: 1, seconds: 1, trace: true, quick: true, scratch: t.TempDir(), log: io.Discard})
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%d of %d operations failed: %v", r.Failed, r.Attempted, r.Failures)
			}
			for _, m := range spec.EndToEnd {
				got, ok := r.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("end-to-end metric %s (%s) missing or in another unit: %+v", m.Name, m.Unit, got)
				} else if got.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
				}
			}
			for _, m := range spec.PerLayer {
				if got, ok := r.Layers[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer metric %s (%s) missing or in another unit: %+v", m.Name, m.Unit, got)
				}
			}
			if c := r.Layers["trace.coverage"].Value; c < 0.9 {
				t.Errorf("trace.coverage = %.3f, want >= 0.9", c)
			}
			if n := len(r.line().Metrics); n != len(spec.PerLayer) {
				t.Errorf("traced summary line has %d metrics, BENCHMARK.json lists %d per-layer ones", n, len(spec.PerLayer))
			}
			untraced := r
			untraced.Trace = false
			if n := len(untraced.line().Metrics); n != len(spec.EndToEnd) {
				t.Errorf("untraced summary line has %d metrics, BENCHMARK.json lists %d end-to-end ones", n, len(spec.EndToEnd))
			}
		})
	}
}
