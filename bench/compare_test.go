package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	wide := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	cases := []struct {
		name          string
		base, head    []float64
		lowerIsBetter bool
		want          string
	}{
		{"no change", steady, scale(steady, 1.01), true, "same"},
		{"slower beyond the bound", steady, scale(steady, 1.2), true, "worse"},
		{"slower within the bound", steady, scale(steady, 1.05), true, "same"},
		{"every head run faster", steady, scale(steady, 0.8), true, "better"},
		{"throughput dropped", steady, scale(steady, 0.8), false, "worse"},
		{"throughput rose", steady, scale(steady, 1.2), false, "better"},
		{"spread wider than the bound", wide, scale(wide, 1.02), true, "unresolved"},
		{"wide but every head run better", wide, scale(wide, 0.2), true, "better"},
	}
	for _, c := range cases {
		if v := judge(c.base, c.head, c.lowerIsBetter, 0.1); v.Verdict != c.want {
			t.Errorf("%s: verdict %s (change %+.3f), want %s", c.name, v.Verdict, v.Change, c.want)
		}
	}
}

func writeRecords(t *testing.T, path string, rs []record) {
	t.Helper()
	os.Remove(path)
	for _, r := range rs {
		if err := appendRecord(path, r); err != nil {
			t.Fatal(err)
		}
	}
}

// synthetic makes n correct untraced records of one workload, every
// end-to-end metric at value v except the given overrides.
func synthetic(t *testing.T, workload string, n int, v float64, over map[string]float64) []record {
	t.Helper()
	spec, err := loadBenchmarkSpec()
	if err != nil {
		t.Fatal(err)
	}
	var out []record
	for i := 0; i < n; i++ {
		r := record{Workload: workload, Correct: true, Attempted: 1, Metrics: map[string]metric{}}
		// A little spread, well inside every bound.
		jitter := 1 + 0.002*float64(i%3)
		for _, m := range spec.EndToEnd {
			x := v
			if o, ok := over[m.Name]; ok {
				x = o
			}
			r.Metrics[m.Name] = metric{Value: x * jitter, Unit: m.Unit}
		}
		out = append(out, r)
	}
	return out
}

func TestCompareCommand(t *testing.T) {
	dir := t.TempDir()
	base, head := filepath.Join(dir, "base.json"), filepath.Join(dir, "head.json")
	writeRecords(t, base, append(synthetic(t, "fault-matrix", 5, 10, nil), synthetic(t, "sim-check", 5, 10, nil)...))
	// A traced record and a failed one are ignored.
	ignored := synthetic(t, "sim-check", 2, 1000, nil)
	ignored[0].Trace = true
	ignored[1].Correct = false
	writeRecords(t, head, append(append(
		synthetic(t, "fault-matrix", 5, 10, map[string]float64{"op_gmean_ms": 20}),
		synthetic(t, "sim-check", 5, 10, nil)...), ignored...))

	var out, errb bytes.Buffer
	if status := run([]string{"compare", base, head}, &out, &errb); status != 1 {
		t.Fatalf("status %d, want 1 (a metric got worse); stderr: %s", status, errb.String())
	}
	text := out.String()
	for _, want := range []string{"fault-matrix: 5 base runs, 5 head runs", "sim-check: 5 base runs, 5 head runs"} {
		if !strings.Contains(text, want) {
			t.Errorf("output lacks %q:\n%s", want, text)
		}
	}
	block := ""
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) < 2 || f[0] == "metric":
			continue
		case strings.HasSuffix(f[0], ":"):
			block = strings.TrimSuffix(f[0], ":")
			continue
		}
		want := "same"
		if block == "fault-matrix" && f[0] == "op_gmean_ms" {
			want = "worse"
		}
		if got := f[len(f)-1]; got != want {
			t.Errorf("%s row %q: verdict %s, want %s", block, line, got, want)
		}
	}

	writeRecords(t, head, synthetic(t, "fault-matrix", 5, 10, nil))
	out.Reset()
	if status := run([]string{"compare", base, head}, &out, &errb); status != 0 {
		t.Errorf("status %d for unchanged runs, want 0:\n%s", status, out.String())
	}
	if status := run([]string{"compare", base}, &out, &errb); status != 2 {
		t.Errorf("status %d for a missing argument, want 2", status)
	}
}
