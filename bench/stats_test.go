package main

import (
	"math"
	"runtime"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The reference quartiles are what Python's statistics.quantiles(xs, n=4)
// prints for the same samples.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.5, 1.25, 9, 4, 4.5}, 2.375, 4.0, 6.75},
		{[]float64{2, 8}, 0.5, 5.0, 9.5},
		{[]float64{5, 1, 4}, 1.0, 4.0, 5.0},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestQuantileAndMedian(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); !near(got, 2.5) {
		t.Errorf("median = %v, want 2.5", got)
	}
	if xs[0] != 4 {
		t.Error("median sorted its argument in place")
	}
	s := sortedCopy(xs)
	if got := quantile(s, 0); got != 1 {
		t.Errorf("q0 = %v, want 1", got)
	}
	if got := quantile(s, 1); got != 4 {
		t.Errorf("q1 = %v, want 4", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	// A failed request (+Inf) at the top rank makes the top quantile +Inf.
	if got := quantile([]float64{1, 2, math.Inf(1)}, 1); !math.IsInf(got, 1) {
		t.Errorf("quantile with a failure = %v, want +Inf", got)
	}
}

func TestTailRule(t *testing.T) {
	lat := make([]float64, 1000)
	for i := range lat {
		lat[i] = float64(i + 1)
	}
	v, beyond := tail(lat, 99)
	if beyond != 10 || !near(v, 990.01) {
		t.Errorf("p99 of 1..1000 = %v with %d beyond, want 990.01 with 10", v, beyond)
	}
	if _, beyond := tail(lat, 100); beyond != 0 {
		t.Errorf("the maximum has %d beyond, want 0", beyond)
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {20, 50}, {100, 90}, {200, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := highestTail(c.n); got != c.want {
			t.Errorf("highestTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestFinite(t *testing.T) {
	if got := finite(math.Inf(1)); math.IsInf(got, 0) {
		t.Error("finite left +Inf in place")
	}
	if got := finite(2.5); got != 2.5 {
		t.Errorf("finite(2.5) = %v", got)
	}
}

func TestHistogramMedian(t *testing.T) {
	bounds := []float64{1, 2, 5}
	before := []uint64{10, 0, 0, 0}
	// Added: 2 in (0,1], 2 in (1,2], 4 in (2,5]: the median (rank 4) is
	// the top of the second bucket.
	after := []uint64{12, 2, 4, 0}
	if got := histogramMedianMS(bounds, before, after); !near(got, 2) {
		t.Errorf("median = %v, want 2", got)
	}
	// All added in (2,5]: rank 2 of 4 sits halfway through the bucket.
	if got := histogramMedianMS(bounds, before, []uint64{10, 0, 4, 0}); !near(got, 3.5) {
		t.Errorf("median = %v, want 3.5", got)
	}
	// The overflow bucket ends at twice the last bound.
	if got := histogramMedianMS(bounds, nil, []uint64{0, 0, 0, 2}); !near(got, 7.5) {
		t.Errorf("overflow median = %v, want 7.5", got)
	}
	if got := histogramMedianMS(bounds, after, after); got != 0 {
		t.Errorf("median of nothing added = %v, want 0", got)
	}
}

func TestKindSummaries(t *testing.T) {
	var ss []sample
	// Half the operations fast, half slow: the median of all of them would
	// fall between the kinds; each kind's median stands for it.
	for i := 0; i < 4; i++ {
		ss = append(ss, sample{kind: "a", ms: 1 + float64(i)/10}) // median 1.15
		ss = append(ss, sample{kind: "b", ms: 10})
		ss = append(ss, sample{kind: "c", ms: 20 + float64(i)}) // median 21.5
	}
	meds := kindMedians(ss)
	if len(meds) != 3 || !near(meds[0], 1.15) || !near(meds[1], 10) || !near(meds[2], 21.5) {
		t.Errorf("kind medians = %v, want [1.15 10 21.5]", meds)
	}
	if got := geomean([]float64{1, 10, 100}); !near(got, 10) {
		t.Errorf("geomean(1, 10, 100) = %v, want 10", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean of nothing = %v, want 0", got)
	}
}

func TestHostRef(t *testing.T) {
	var h hostRef
	if got := h.slowness(); got != 1 {
		t.Errorf("slowness before any chunk = %v, want 1", got)
	}
	h.keepUp(200 * time.Millisecond)
	if min := time.Duration(refShare * float64(200*time.Millisecond)); h.spent < min || len(h.ms) == 0 {
		t.Errorf("after 200 ms of work the reference ran %d chunks for %v, want at least %v", len(h.ms), h.spent, min)
	}
	if got, want := h.slowness(), median(h.ms)/refNominalMS; got != want || got <= 0 {
		t.Errorf("slowness = %v, want %v", got, want)
	}
	// Caught up: no measured time, no chunk.
	n := len(h.ms)
	h.keepUp(0)
	if len(h.ms) != n {
		t.Errorf("keepUp(0) ran %d more chunks", len(h.ms)-n)
	}
}

func TestSlownessAt(t *testing.T) {
	// Sixteen chunks, one per second: the first eight at the nominal time,
	// the last eight twice as slow.
	var h hostRef
	for i := 0; i < 16; i++ {
		h.at = append(h.at, time.Duration(i+1)*time.Second)
		h.ms = append(h.ms, refNominalMS*float64(1+i/8))
	}
	for _, c := range []struct {
		at   time.Duration
		want float64
	}{
		{0, 1},                 // before the first chunk: the first window
		{4 * time.Second, 1},   // chunks 1-8
		{9 * time.Second, 1.5}, // four of each speed
		{14 * time.Second, 2},  // chunks 9-16
		{time.Hour, 2},         // after the last chunk: the last window
		{8500 * time.Millisecond, 1.5},
	} {
		if got := h.slownessAt(c.at); !near(got, c.want) {
			t.Errorf("slowness at %v = %v, want %v", c.at, got, c.want)
		}
	}
	ref := h.atReference([]sample{{kind: "x", end: 14 * time.Second, ms: 10}})
	if !near(ref[0].ms, 5) || ref[0].kind != "x" {
		t.Errorf("at reference speed: %+v, want 5 ms", ref[0])
	}
	// A sample from 6 s to 10 s has chunks 4-12 within 2 s of it, five
	// nominal ones among them; the eight nearest its end are chunks 6-13.
	for _, c := range []struct {
		s    sample
		want float64
	}{
		{sample{end: 10 * time.Second, ms: 4000}, 1},
		{sample{end: 10 * time.Second, ms: 10}, 2},          // too short: slownessAt its end
		{sample{end: 10 * time.Second, ms: math.Inf(1)}, 2}, // failed: slownessAt its end
	} {
		if got := h.slownessOf(c.s); !near(got, c.want) {
			t.Errorf("slowness of %+v = %v, want %v", c.s, got, c.want)
		}
	}
	if got := (&hostRef{}).slownessAt(time.Second); got != 1 {
		t.Errorf("slowness with no chunks = %v, want 1", got)
	}
}

func TestMeta(t *testing.T) {
	m := newMeta(42, 7.5)
	if m.Seed != 42 || m.Seconds != 7.5 || m.NumCPU != runtime.NumCPU() ||
		m.GOMAXPROCS != runtime.GOMAXPROCS(0) || m.GoVersion != runtime.Version() ||
		m.Host == "" || m.Commit == "" || m.Start == "" {
		t.Errorf("incomplete metadata: %+v", m)
	}
}
