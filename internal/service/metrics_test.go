package service

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestMetricsCounters(t *testing.T) {
	m := newMetrics()
	done := m.Begin("derive")
	snap := m.Snapshot()
	ep := snap.Endpoints["derive"]
	if ep.Requests != 1 || ep.InFlight != 1 {
		t.Fatalf("mid-flight: %+v", ep)
	}
	done(false)
	m.Begin("derive")(true)
	snap = m.Snapshot()
	ep = snap.Endpoints["derive"]
	if ep.Requests != 2 || ep.Errors != 1 || ep.InFlight != 0 {
		t.Fatalf("after completion: %+v", ep)
	}
	var total uint64
	for _, c := range ep.LatencyCounts {
		total += c
	}
	if total != 2 {
		t.Errorf("histogram holds %d observations, want 2", total)
	}
}

func TestMetricsConcurrent(t *testing.T) {
	m := newMetrics()
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m.Begin("x")(i%2 == 0)
		}(i)
	}
	wg.Wait()
	ep := m.Snapshot().Endpoints["x"]
	if ep.Requests != 50 || ep.Errors != 25 || ep.InFlight != 0 {
		t.Errorf("endpoint stats = %+v", ep)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram()
	for i := 0; i < 90; i++ {
		h.observe(3) // lands in the <=5ms bucket
	}
	for i := 0; i < 10; i++ {
		h.observe(700) // lands in the <=1000ms bucket
	}
	if q := h.quantile(0.50); q != 5 {
		t.Errorf("p50 = %v, want 5 (bucket upper bound)", q)
	}
	if q := h.quantile(0.95); q != 1000 {
		t.Errorf("p95 = %v, want 1000", q)
	}
	if q := h.quantile(0.99); q != 1000 {
		t.Errorf("p99 = %v, want 1000", q)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := newHistogram()
	h.observe(60000)
	if h.counts[len(h.counts)-1] != 1 {
		t.Error("overflow observation not in the last bucket")
	}
	if q := h.quantile(0.5); q != 2*latencyBucketsMS[len(latencyBucketsMS)-1] {
		t.Errorf("overflow quantile = %v", q)
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	p := NewPool(2)
	ctx := context.Background()
	if err := p.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := p.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	short, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if err := p.Acquire(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("third acquire: err = %v, want deadline exceeded", err)
	}
	st := p.Stats()
	if st.Capacity != 2 || st.InUse != 2 || st.Timeouts != 1 {
		t.Fatalf("stats = %+v", st)
	}
	p.Release()
	if err := p.Acquire(ctx); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	p.Release()
	p.Release()
}

func TestPoolWaitersProceedOnRelease(t *testing.T) {
	p := NewPool(1)
	ctx := context.Background()
	if err := p.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- p.Acquire(ctx) }()
	for p.Stats().Waiting == 0 {
		time.Sleep(time.Millisecond)
	}
	p.Release()
	if err := <-got; err != nil {
		t.Fatalf("waiter: %v", err)
	}
	p.Release()
}

func TestPoolDefaultSize(t *testing.T) {
	if c := NewPool(0).Stats().Capacity; c < 1 {
		t.Errorf("default capacity = %d", c)
	}
}

// TestRuntimeStats asserts the Go runtime gauges are populated and exposed
// on the metrics page.
func TestRuntimeStats(t *testing.T) {
	runtime.GC() // ensure at least one collection is on record
	rs := readRuntimeStats()
	if rs.Goroutines < 1 || rs.GOMAXPROCS < 1 {
		t.Errorf("scheduler gauges = %+v", rs)
	}
	if rs.HeapAllocBytes == 0 || rs.HeapSysBytes == 0 || rs.NextGCBytes == 0 {
		t.Errorf("heap gauges = %+v", rs)
	}
	if rs.NumGC == 0 || rs.GCPauseTotalMS <= 0 || rs.GCPauseLastMS <= 0 {
		t.Errorf("GC gauges = %+v", rs)
	}
}
