package main

import (
	"fmt"
	"io"
	"slices"
)

// verdict judges one end-to-end metric on one workload from two sets of
// runs, by the rules the benchmark's bounds are written for:
//
//   - the spread of a side is the distance between its quartiles over its
//     median; when either side's spread is wider than the bound, the
//     verdict is "unresolved" — unless every head run beats every base run,
//     which is "better";
//   - otherwise the head median worse than the base median by more than
//     the bound is "worse";
//   - a head median better by more than the base spread, or every head run
//     beating every base run, is "better";
//   - anything else is "same": no change beyond the bound.
type verdict struct {
	Base, Head [3]float64 // first quartile, median, third quartile
	// Change is the head median relative to the base median, signed so
	// that positive is worse.
	Change  float64
	Verdict string
}

func judge(base, head []float64, lowerIsBetter bool, bound float64) verdict {
	var v verdict
	v.Base[0], v.Base[1], v.Base[2] = quartiles(base)
	v.Head[0], v.Head[1], v.Head[2] = quartiles(head)
	v.Change = ratio(v.Head[1]-v.Base[1], v.Base[1])
	better := func(h, b float64) bool { return h < b }
	if !lowerIsBetter {
		v.Change = -v.Change
		better = func(h, b float64) bool { return h > b }
	}
	allBetter := len(base) > 0 && len(head) > 0
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && better(h, b)
		}
	}
	baseSpread := ratio(v.Base[2]-v.Base[0], v.Base[1])
	headSpread := ratio(v.Head[2]-v.Head[0], v.Head[1])
	switch {
	case allBetter:
		v.Verdict = "better"
	case baseSpread > bound || headSpread > bound:
		v.Verdict = "unresolved"
	case v.Change > bound:
		v.Verdict = "worse"
	case -v.Change > baseSpread && -v.Change > 0:
		v.Verdict = "better"
	default:
		v.Verdict = "same"
	}
	return v
}

// runCompare compares two record files (base, then head) metric by metric,
// one block of rows per workload. It exits 1 when any metric is worse.
func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare BASE HEAD")
		return 2
	}
	spec, err := loadBenchmarkSpec()
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	var sides [2][]record
	for i, p := range args {
		if sides[i], err = readRecords(p); err != nil {
			fmt.Fprintln(stderr, "bench compare:", err)
			return 2
		}
	}
	status := 0
	for _, w := range spec.Workloads {
		base, head := endToEndRuns(sides[0], w.Name), endToEndRuns(sides[1], w.Name)
		if len(base) == 0 || len(head) == 0 {
			continue
		}
		fmt.Fprintf(stdout, "%s: %d base runs, %d head runs\n", w.Name, len(base), len(head))
		fmt.Fprintf(stdout, "  %-12s %-34s %-34s %8s %6s  %s\n", "metric", "base q1 / median / q3", "head q1 / median / q3", "change", "bound", "verdict")
		for _, m := range spec.EndToEnd {
			v := judge(values(base, m.Name), values(head, m.Name), m.Better == "lower", m.Bound)
			fmt.Fprintf(stdout, "  %-12s %-34s %-34s %+7.1f%% %5.0f%%  %s\n", m.Name,
				fmt.Sprintf("%.4g / %.4g / %.4g %s", v.Base[0], v.Base[1], v.Base[2], m.Unit),
				fmt.Sprintf("%.4g / %.4g / %.4g %s", v.Head[0], v.Head[1], v.Head[2], m.Unit),
				100*v.Change, 100*m.Bound, v.Verdict)
			if v.Verdict == "worse" {
				status = 1
			}
		}
	}
	return status
}

// endToEndRuns selects the untraced, correct records of one workload.
func endToEndRuns(rs []record, workload string) []record {
	return slices.DeleteFunc(slices.Clone(rs), func(r record) bool {
		return r.Workload != workload || r.Trace || !r.Correct
	})
}

func values(rs []record, name string) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
