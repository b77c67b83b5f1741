package main

import (
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of an ascending slice by
// linear interpolation between closest ranks (0 for an empty slice).
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if math.IsInf(sorted[hi], 1) {
		return sorted[hi]
	}
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the median of xs.
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// geomean returns the geometric mean of positive xs (0 for none). It is
// the summary of a fixed set of unlike operations that weighs each
// operation's relative change alike, whatever its size.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logs float64
	for _, x := range xs {
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(xs)))
}

// quartiles returns the first quartile, the median and the third quartile
// of xs, computed as Python's statistics.quantiles(xs, n=4) does (the
// "exclusive" method), so the comparator's spreads match that definition.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	// A line-for-line port of CPython's exclusive method, including its
	// clamping of the rank to 1..ld-1 (which extrapolates on tiny samples).
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// tail is the latency tail rule: the value at percentile pct, and how many
// samples lie beyond it. A tail is reportable when at least ten samples lie
// beyond it; a workload fixes its percentile so that its shortest run still
// meets that, and the record states the count.
func tail(sorted []float64, pct float64) (value float64, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	value = quantile(sorted, pct/100)
	for i := len(sorted) - 1; i >= 0 && sorted[i] > value; i-- {
		beyond++
	}
	return value, beyond
}

// highestTail returns the highest percentile of the ladder 50, 90, 95, 99,
// 99.9 that has at least ten of n samples beyond it, or 0 when none does.
func highestTail(n int) float64 {
	best := 0.0
	for _, p := range []float64{50, 90, 95, 99, 99.9} {
		// The tolerance absorbs the rounding of 100 - 99.9.
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// histogramMedianMS estimates the median of the observations a fixed-bucket
// latency histogram gained between two snapshots: before and after are the
// bucket counts, the last one the overflow bucket above the final bound.
// The median is interpolated linearly inside its bucket, the overflow
// bucket taken to end at twice the final bound; 0 when nothing was added.
func histogramMedianMS(bounds []float64, before, after []uint64) float64 {
	delta := make([]float64, len(after))
	var n float64
	for i := range after {
		delta[i] = float64(after[i])
		if i < len(before) {
			delta[i] -= float64(before[i])
		}
		n += delta[i]
	}
	if n == 0 || len(bounds) == 0 {
		return 0
	}
	rank, seen := n/2, 0.0
	for i, c := range delta {
		if c == 0 || seen+c < rank {
			seen += c
			continue
		}
		lo, hi := 0.0, 2*bounds[len(bounds)-1]
		if i > 0 {
			lo = bounds[i-1]
		}
		if i < len(bounds) {
			hi = bounds[i]
		}
		return lo + (hi-lo)*(rank-seen)/c
	}
	return 2 * bounds[len(bounds)-1]
}

// finite replaces +Inf (a failed request) by a large sentinel so it can be
// encoded as JSON.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return 1e12
	}
	return v
}

// meta is the provenance every record carries.
type meta struct {
	Host       string  `json:"host"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds_requested"`
	Measured   float64 `json:"seconds_measured"`
	SetupReps  int     `json:"setup_reps"`
	Start      string  `json:"start"`
}

func newMeta(seed int64, seconds float64) meta {
	host, err := os.Hostname()
	if err != nil {
		host = "unknown"
	}
	return meta{
		Host:       host,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     buildCommit(),
		Seed:       seed,
		Seconds:    seconds,
		Start:      time.Now().UTC().Format(time.RFC3339),
	}
}

// buildCommit is the VCS revision the binary was built from, as stamped by
// the Go toolchain; "unknown" when the build had no repository.
func buildCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// readStatusKB reads one "Name: N kB" field of /proc/<pid>/status
// ("self" for this process); 0 when unavailable.
func readStatusKB(pid, field string) int64 {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, _ := strconv.ParseInt(f[0], 10, 64)
				return kb
			}
		}
	}
	return 0
}
