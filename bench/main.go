// Command bench is the repository's benchmark: four workloads over the
// derive → verify → run → serve pipeline, each printing its end-to-end
// metrics, or with -trace 1 its per-layer metrics, and checking every
// output against testdata/expected.json. See README.md.
//
// Usage:
//
//	bench -workload NAME -seed N -seconds S -trace 0|1 [-out FILE]
//	bench [-seed N] [-seconds S] [-trace 0|1] [-out FILE]   all workloads, one child process each
//	bench [flags] compare BASE HEAD                         compare two files of -out records
//
// The last line of a workload run's standard output is a JSON object with
// the keys correct, attempted, failed and metrics. The exit status is 0
// when every operation produced the expected output, 1 when one did not,
// and 2 when the run could not be carried out.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (empty: every workload, each in a child process)")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 20, "measurement length of each workload run")
	trace := fs.Int("trace", 0, "1 runs traced and reports per-layer metrics")
	out := fs.String("out", "", "append each run's JSON record to this file")
	pgd := fs.String("pgd", "", "pgd binary daemon-mix drives (empty: serve in-process)")
	scratch := fs.String("scratch", "", "directory for files the run writes (default: the OS temp dir)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.Arg(0) == "compare" {
		return runCompare(fs.Args()[1:], stdout, stderr)
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, pgd: *pgd, scratch: *scratch, log: stderr}
	if *name == "" {
		return runAll(args, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	rec, err := runOne(w, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 2
	}
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	printRecord(stdout, rec)
	for _, f := range rec.Failures {
		fmt.Fprintln(stderr, "bench: failed:", f)
	}
	line, err := json.Marshal(rec.line())
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rec.Correct {
		return 1
	}
	return 0
}

// runOne runs one workload in this process.
func runOne(w workload, cfg config) (record, error) {
	exp, err := loadExpectations()
	if err != nil {
		return record{}, err
	}
	o, err := w.run(cfg, exp)
	if err != nil {
		return record{}, err
	}
	if o.rssKB == 0 {
		o.rssKB = readStatusKB("self", "VmHWM")
	}
	return newRecord(w, cfg, o), nil
}

// runAll runs every workload in a child process of its own, so each one's
// peak RSS and GC state are its own, and passes the other flags through.
func runAll(args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	status := 0
	for _, w := range workloads {
		cmd := exec.Command(exe, append([]string{"-workload", w.name}, args...)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			var ee *exec.ExitError
			if !errors.As(err, &ee) {
				return 2
			}
			status = max(status, ee.ExitCode())
		}
	}
	return status
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printRecord prints every metric of the run with its unit and base.
func printRecord(w io.Writer, r record) {
	fmt.Fprintf(w, "workload %s  seed %d  trace %v  measured %.2f s  ops %d  failed %d\n",
		r.Workload, r.Meta.Seed, r.Trace, r.Meta.Measured, r.Attempted, r.Failed)
	fmt.Fprintf(w, "  host %s  nproc %d  GOMAXPROCS %d  %s  commit %s\n",
		r.Meta.Host, r.Meta.NumCPU, r.Meta.GOMAXPROCS, r.Meta.GoVersion, r.Meta.Commit)
	printMetrics(w, r.Metrics)
	if r.Layers != nil {
		printMetrics(w, r.Layers)
		fmt.Fprintf(w, "  %-32s %8s %12s %12s %12s\n", "span", "calls", "total ms", "self ms", "p50 ms")
		for _, n := range sortedKeys(r.SpanStats) {
			s := r.SpanStats[n]
			fmt.Fprintf(w, "  %-32s %8d %12.3f %12.3f %12.4f\n", n, s.Calls, s.TotalMS, s.SelfMS, s.P50MS)
		}
	}
	for _, k := range sortedKeys(r.Notes) {
		fmt.Fprintf(w, "  note %s = %v\n", k, r.Notes[k])
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func printMetrics(w io.Writer, ms map[string]metric) {
	for _, n := range sortedKeys(ms) {
		m := ms[n]
		base := ""
		if m.Base != "" {
			base = "  (" + m.Base + ")"
		}
		fmt.Fprintf(w, "  %-32s %14.6g %s%s\n", n, m.Value, m.Unit, base)
	}
}

// benchmarkFile finds BENCHMARK.json in the working directory or its parent
// (the benchmark runs from the repository root or from bench/).
func benchmarkFile() (string, error) {
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if _, err := os.Stat(p); err == nil {
			return p, nil
		}
	}
	return "", errors.New("BENCHMARK.json not found in . or ..")
}

// benchmarkSpec is the part of BENCHMARK.json the program reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkSpec() (*benchmarkSpec, error) {
	p, err := benchmarkFile()
	if err != nil {
		return nil, err
	}
	b, err := os.ReadFile(p)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", p, err)
	}
	for _, m := range s.EndToEnd {
		if m.Better != "lower" && m.Better != "higher" {
			return nil, fmt.Errorf("%s: metric %s: better must be lower or higher", p, m.Name)
		}
	}
	return &s, nil
}

// readRecords reads a file of JSON records, one per line.
func readRecords(path string) ([]record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []record
	for i, line := range strings.Split(string(b), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, i+1, err)
		}
		out = append(out, r)
	}
	return out, nil
}
