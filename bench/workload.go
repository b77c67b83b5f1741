package main

import (
	"fmt"
	"io"
	"math/rand/v2"
	"runtime"
	"slices"
	"time"

	"repro/internal/apf"
	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/lotos"
)

// config is what one workload run is given.
type config struct {
	seed    int64
	seconds float64 // measurement length
	trace   bool
	// quick selects the reduced smoke-test scale: fewer inputs, one setup.
	quick   bool
	pgd     string // pgd binary for daemon-mix; "" serves in-process
	scratch string // directory for files the run writes (spilled runs)
	log     io.Writer
}

// A run sets its workload up several times and reports the median as
// setup_s; the last setup is the one measured. Setups repeat until there
// are setupMinReps of them and they have taken setupSpend together, so
// their median rides out a stretch of interference from outside. A setup
// longer than setupCollect is followed by a collection outside the timing,
// so the next one does not pay for its garbage. Cheaper setups run back to
// back, thousands of them, and the median leaves out the few a collection
// lands in; a collection before each would cost more than the setup and
// leave it to run on cold caches.
const (
	setupMinReps = 3
	setupSpend   = 4 * time.Second
	setupCollect = 10 * time.Millisecond
)

// moreSetups reports whether a run that has set up done times, spending
// spent, sets up once more.
func (c config) moreSetups(done int, spent time.Duration) bool {
	if c.quick {
		return done < 1
	}
	return done < setupMinReps || spent < setupSpend
}

// workload is one benchmark workload.
type workload struct {
	name string
	// tailPct is the percentile op_tail_ms takes over the run's latencies,
	// fixed per workload so that runs compare: the highest with at least
	// ten operations beyond it in the shortest run (a fault-matrix run
	// holds at least three 96-cell passes). 100 marks a workload whose run
	// holds too few operations for any percentile (large-state: a dozen);
	// its tail is the slowest kind's median, since the maximum of a dozen
	// would be set by whichever run of its slowest operation met the
	// worst moment on the host.
	tailPct float64
	run     func(cfg config, exp *expectations) (*outcome, error)
}

var workloads = []workload{
	{"fault-matrix", 95, runFaultMatrix},
	{"large-state", 100, runLargeState},
	{"sim-check", 99, runSimCheck},
	{"daemon-mix", 99, runDaemonMix},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sample is one timed piece of work: an operation, a setup, or a stretch
// of load. end is when it ended on the host reference's clock; ms is how
// long it took (+Inf for a failed request).
type sample struct {
	kind string
	end  time.Duration
	ms   float64
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	failures          []string // the first few failure descriptions
	setups            []sample
	ops               []sample // untraced operations, by kind: a fault-matrix cell, a large-state operation, a sim-check service, a daemon-mix request class
	busy              []sample // untraced stretches of load: the operations themselves in a closed loop, the load segments in daemon-mix
	host              hostRef  // the host-speed reference, run through setup and measurement
	rssKB             int64    // peak RSS of the measured process
	trace             *traceSummary
	notes             map[string]any
}

func newOutcome() *outcome {
	return &outcome{host: hostRef{start: time.Now()}, notes: map[string]any{}}
}

// timed returns the sample of work of kind that started at t0 and has just
// ended.
func (o *outcome) timed(kind string, t0 time.Time) sample {
	return sample{kind, o.host.now(), float64(time.Since(t0).Nanoseconds()) / 1e6}
}

// fail records a failed operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 10 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// setup runs build as often as cfg.moreSetups asks, timing each, and
// returns the last result; close, when non-nil, releases every earlier
// result (and the last one too when a repetition fails). The first setup
// starts on a collected heap, and so does every one after a setup longer
// than setupCollect. The host reference keeps up after each setup.
func setup[T any](cfg config, o *outcome, tr *tracer, build func(sp *spanRef) (T, error), close func(T)) (T, error) {
	var last T
	var spent time.Duration
	runtime.GC()
	for i := 0; cfg.moreSetups(i, spent); i++ {
		t0 := time.Now()
		sp := tr.op("setup")
		v, err := build(sp)
		sp.end()
		s := o.timed("setup", t0)
		if i > 0 && close != nil {
			close(last)
		}
		if err != nil {
			var zero T
			return zero, fmt.Errorf("setup: %w", err)
		}
		took := time.Since(t0)
		spent += took
		o.setups = append(o.setups, s)
		last = v
		if took > setupCollect {
			runtime.GC()
		}
		o.host.keepUp(took)
	}
	return last, nil
}

// op is one closed-loop operation; a returned error is a wrong output.
type op struct {
	name string
	run  func(sp *spanRef) error
}

// closedLoop runs whole passes over ops, one client, each pass in a fresh
// order drawn from rng, until another pass would end past the budget
// (always at least one pass), so every run measures the same input mix.
// Reordering every pass varies what runs before each operation (and leaves
// garbage for it to collect), so an operation's median does not hinge on
// one order. The host reference keeps up after each operation. With a
// tracer each operation gets a root span. It returns the operations.
func closedLoop(o *outcome, budget time.Duration, ops []op, rng *rand.Rand, tr *tracer) []sample {
	var out []sample
	ops = slices.Clone(ops)
	start := time.Now()
	for {
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		passStart := time.Now()
		for _, x := range ops {
			t0 := time.Now()
			sp := tr.op(x.name)
			err := x.run(sp)
			sp.end()
			s := o.timed(x.name, t0)
			out = append(out, s)
			o.attempted++
			if err != nil {
				o.fail("%s: %v", x.name, err)
			}
			o.host.keepUp(time.Since(t0))
		}
		tr.count("passes", 1)
		if time.Since(start)+time.Since(passStart) > budget {
			return out
		}
	}
}

// newTracer returns the run's tracer, nil when the run is untraced.
func (c config) newTracer() *tracer {
	if !c.trace {
		return nil
	}
	return newTracer()
}

// budget is the measurement length.
func (c config) budget() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// measure runs the closed-loop measurement, from a collected heap:
// untraced for the whole budget, or, when tracing, a third untraced (the
// baseline for the tracing overhead) followed by two thirds traced.
func measure(cfg config, o *outcome, ops []op, tr *tracer) {
	untraced := cfg.budget()
	if tr != nil {
		untraced /= 3
	}
	rng := newRand(cfg.seed, streamOrder)
	runtime.GC()
	o.ops = closedLoop(o, untraced, ops, rng, nil)
	o.busy = o.ops
	if tr != nil {
		traced := closedLoop(o, cfg.budget()-untraced, ops, rng, tr)
		o.finishTrace(tr, mean(times(traced))/mean(times(o.ops)))
	}
}

// finishTrace stores the traced portion's summary.
func (o *outcome) finishTrace(tr *tracer, overhead float64) {
	tr.gauge("trace.overhead_ratio", overhead)
	s := tr.summary()
	o.trace = &s
}

// times returns the samples' times in ms.
func times(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.ms
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// deriveLayers parses and derives src through each layer's public
// function, one span per call: lotos.Parse, apf.TransformSpec and
// attr.Analyze (timed on their own), then core.Derive, which repeats the
// last two before projecting — the projection's time is core.Derive minus
// the other two.
func deriveLayers(sp *spanRef, tr *tracer, src string) (*core.Derivation, error) {
	c := sp.child("lotos.Parse")
	spec, err := lotos.Parse(src)
	c.end()
	if err != nil {
		return nil, err
	}
	work := lotos.CloneSpec(spec)
	c = sp.child("apf.TransformSpec")
	_, err = apf.TransformSpec(work)
	c.end()
	if err != nil {
		return nil, err
	}
	c = sp.child("attr.Analyze")
	_, err = attr.Analyze(work)
	c.end()
	if err != nil {
		return nil, err
	}
	c = sp.child("core.Derive")
	d, err := core.Derive(spec, core.Options{})
	c.end()
	if err != nil {
		return nil, err
	}
	tr.count("core.messages", float64(d.SendCount()))
	return d, nil
}

// derive parses and derives src: through deriveLayers when tracing,
// directly otherwise.
func derive(sp *spanRef, tr *tracer, src string) (*core.Derivation, error) {
	if tr != nil {
		return deriveLayers(sp, tr, src)
	}
	spec, err := lotos.Parse(src)
	if err != nil {
		return nil, err
	}
	return core.Derive(spec, core.Options{})
}
