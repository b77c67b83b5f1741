package main

import (
	"math"
	"sort"
	"strconv"
	"time"
)

// The benchmark usually runs on a few vCPUs of a shared machine whose speed
// drifts as other tenants come and go: on the reference host a fixed
// computation runs up to a third slower in one stretch of minutes than in
// another, CPU time slows with it (the other tenants share caches and
// cores, they do not steal whole CPUs), and no statistic over a single run
// removes a slowdown that lasts the whole run. So every run measures the
// host's speed alongside its work: it interleaves a fixed reference
// computation (refChunk, the benchmark's own code) with the measured work,
// spending about refShare of the measured time on it, and reports every
// time at the reference host's speed: divided by the host's slowness while
// it was measured, the median time of the reference chunks run around it
// over refNominalMS. A change to the program under test leaves the
// reference alone, so it shows in full.

const (
	// refShare is the reference's share of the measured time.
	refShare = 0.1
	// refNominalMS is refChunk's median time on the reference host (two
	// vCPUs of an Intel Xeon at 2.1 GHz) in a quiet stretch.
	refNominalMS = 2.5
	// refWindow is how many reference chunks, the nearest in time, give
	// the slowness at one moment: about 20 ms of reference time, run after
	// some 200 ms of measured work. Over whole runs, ten seeds' spreads
	// were smallest with windows of 8 to 16 chunks; one median per run
	// missed the stretches in which the host slowed down, and windows of 4
	// followed the reference's own noise. A sample that lasts long enough
	// to have more chunks around it uses them all (see slownessOf).
	refWindow = 8
)

// refChunk is the reference computation: string keys in a map, an
// unbalanced binary tree of small heap nodes, and a sort, the mix of
// hashing, allocation and pointer chasing the explorers spend their time
// on. It allocates about 0.5 MB, little next to any measured operation.
func refChunk() int {
	type node struct {
		l, r *node
		v    int
	}
	m := map[string]int{}
	var root *node
	for i := 0; i < 7000; i++ {
		m[strconv.Itoa(i*7919%17011)] += i
		n := &node{v: i * 31 % 1009}
		p := &root
		for d := 0; *p != nil && d < 40; d++ {
			if n.v < (*p).v {
				p = &(*p).l
			} else {
				p = &(*p).r
			}
		}
		if *p == nil {
			*p = n
		}
	}
	xs := make([]int, 0, len(m))
	for _, v := range m {
		xs = append(xs, v)
	}
	sort.Ints(xs)
	return xs[len(xs)/2]
}

// refSink keeps refChunk's result live.
var refSink int

// hostRef paces the reference computation and holds its timings. It is
// used from one goroutine.
type hostRef struct {
	start time.Time       // the origin of the reference's clock
	work  time.Duration   // measured time counted so far
	spent time.Duration   // reference time spent so far
	at    []time.Duration // when each reference chunk ended
	ms    []float64       // how long each took
}

// now is the time on the reference's clock.
func (h *hostRef) now() time.Duration { return time.Since(h.start) }

// keepUp counts d more of measured time and runs reference chunks until
// the reference has had refShare of all the measured time counted.
func (h *hostRef) keepUp(d time.Duration) {
	h.work += d
	for h.spent < time.Duration(refShare*float64(h.work)) {
		t0 := time.Now()
		refSink += refChunk()
		took := time.Since(t0)
		h.spent += took
		h.at = append(h.at, h.now())
		h.ms = append(h.ms, float64(took.Nanoseconds())/1e6)
	}
}

// slowness is how much slower than the reference host this run's host
// was overall: the median chunk time over refNominalMS, 1 before any chunk
// has run.
func (h *hostRef) slowness() float64 {
	if len(h.ms) == 0 {
		return 1
	}
	return median(h.ms) / refNominalMS
}

// slownessAt is the host's slowness at moment t: the median time of the
// refWindow chunks nearest t (half ending before t, half after, the window
// shifted inward at either end of the run) over refNominalMS.
func (h *hostRef) slownessAt(t time.Duration) float64 {
	if len(h.ms) == 0 {
		return 1
	}
	i := sort.Search(len(h.at), func(i int) bool { return h.at[i] >= t })
	lo := max(0, min(i-refWindow/2, len(h.ms)-refWindow))
	hi := min(len(h.ms), lo+refWindow)
	return median(h.ms[lo:hi]) / refNominalMS
}

// slownessOf is the host's slowness while sample s ran. The chunks that
// ended within half the sample's length before it started or after it
// ended give it, when there are more than refWindow of them: a large-state
// operation of 1.5 s has some 120, the batches run after the operation
// before it and after it, and their median sees the whole stretch the
// operation ran in, where the refWindow chunks nearest its end see only
// its last moment (and the collection of its garbage). A shorter sample
// takes slownessAt its end.
func (h *hostRef) slownessOf(s sample) float64 {
	if !math.IsInf(s.ms, 1) {
		d := time.Duration(s.ms * 1e6)
		lo := sort.Search(len(h.at), func(i int) bool { return h.at[i] >= s.end-d-d/2 })
		hi := sort.Search(len(h.at), func(i int) bool { return h.at[i] > s.end+d/2 })
		if hi-lo > refWindow {
			return median(h.ms[lo:hi]) / refNominalMS
		}
	}
	return h.slownessAt(s.end)
}

// atReference returns the samples with each time divided by the host's
// slowness while it ran.
func (h *hostRef) atReference(ss []sample) []sample {
	out := make([]sample, len(ss))
	for i, s := range ss {
		out[i] = s
		out[i].ms = s.ms / h.slownessOf(s)
	}
	return out
}
