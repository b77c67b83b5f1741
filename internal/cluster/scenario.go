package cluster

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/fsm"
	"repro/internal/lotos"
)

// Scenario is the JSON description of one cluster campaign: how many
// sessions, over which service specifications, arriving how, routed and
// admitted how. See docs/TUTORIAL.md ("Scale it") for the schema reference.
type Scenario struct {
	// Name labels the campaign in results and benchmarks.
	Name string `json:"name"`
	// Seed is the single campaign seed: every arrival draw and every
	// session execution derives its stream from it (sim.SubSeed), so two
	// runs of one scenario are bit-identical.
	Seed int64 `json:"seed"`
	// Sessions is the total number of session arrivals to generate across
	// all classes.
	Sessions int `json:"sessions"`
	// Replicas is the simulated backend pool size (default 1).
	Replicas int `json:"replicas"`
	// Router selects session routing: "round-robin" (default),
	// "least-loaded" or "affinity" (prefix of the class's spec digest).
	Router string `json:"router,omitempty"`
	// QuantumSweeps is how many lockstep sweeps a session advances per
	// scheduling quantum (default 32). Smaller quanta interleave sessions
	// more finely at more event-heap traffic; the metrics are quantum-
	// independent only in the limit, so the quantum is part of the scenario.
	QuantumSweeps int `json:"quantumSweeps,omitempty"`
	// Admission, when non-nil with a positive rate, is the front-door token
	// bucket; sessions arriving with the bucket empty are rejected.
	Admission *AdmissionSpec `json:"admission,omitempty"`
	// KeepSessions retains one SessionRecord per arrival in the result
	// (identity, class, replica, latency, outcome, trace digest) — the
	// input of single-session replay. Costs ~100B per session.
	KeepSessions bool `json:"keepSessions,omitempty"`
	// Classes are the SLO classes of the workload mix (at least one).
	Classes []ClassSpec `json:"classes"`
}

// AdmissionSpec configures the front-door token bucket.
type AdmissionSpec struct {
	// RatePerSec is the sustained admission rate (tokens per virtual
	// second); <= 0 disables admission control.
	RatePerSec float64 `json:"ratePerSec"`
	// Burst is the bucket capacity (default 1 when rate is set).
	Burst float64 `json:"burst,omitempty"`
}

// ClassSpec describes one SLO class: a service specification and its
// arrival process.
type ClassSpec struct {
	// Name labels the class in metrics (default "class<i>").
	Name string `json:"name"`
	// Spec is a path to a .spec file, resolved against the scenario file's
	// directory. Exactly one of Spec and Source must be set.
	Spec string `json:"spec,omitempty"`
	// Source is the inline service specification text.
	Source string `json:"source,omitempty"`
	// Arrival is the interarrival distribution: "poisson" (default),
	// "gamma" or "weibull".
	Arrival string `json:"arrival,omitempty"`
	// RatePerSec is the class's mean arrival rate per virtual second
	// (required, > 0).
	RatePerSec float64 `json:"ratePerSec"`
	// Shape is the gamma/weibull shape parameter k (ignored for poisson).
	Shape float64 `json:"shape,omitempty"`
	// MaxEvents bounds each session's service primitives (default 32) —
	// mandatory for non-terminating services, harmless for finite ones.
	MaxEvents int `json:"maxEvents,omitempty"`
	// SweepCost is the virtual service demand of one lockstep sweep on an
	// idle replica, as a Go duration string (default "1µs"). Replica
	// contention scales it up.
	SweepCost string `json:"sweepCost,omitempty"`
	// SLO is the class's latency objective as a duration string; when set,
	// the result reports the fraction of completed sessions within it.
	SLO string `json:"slo,omitempty"`
	// CompileMaxStates caps the states each entity machine retains (default
	// fsm default). Past it an unbounded entity's rows are derived on every
	// visit instead of kept, so such classes run too, just slower.
	CompileMaxStates int `json:"compileMaxStates,omitempty"`
}

// LoadScenario reads and parses a scenario file; class spec paths resolve
// relative to the file's directory.
func LoadScenario(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: reading scenario: %w", err)
	}
	return ParseScenario(data, filepath.Dir(path))
}

// ParseScenario parses a scenario from JSON. baseDir anchors relative class
// spec paths ("" means the working directory).
func ParseScenario(data []byte, baseDir string) (*Scenario, error) {
	var sc Scenario
	if err := json.Unmarshal(data, &sc); err != nil {
		return nil, fmt.Errorf("cluster: scenario JSON: %w", err)
	}
	for i := range sc.Classes {
		c := &sc.Classes[i]
		if c.Spec != "" {
			if c.Source != "" {
				return nil, fmt.Errorf("cluster: class %d sets both spec and source", i)
			}
			p := c.Spec
			if !filepath.IsAbs(p) && baseDir != "" {
				p = filepath.Join(baseDir, p)
			}
			src, err := os.ReadFile(p)
			if err != nil {
				return nil, fmt.Errorf("cluster: class %d: %w", i, err)
			}
			c.Source = string(src)
			if c.Name == "" {
				c.Name = trimSpecName(c.Spec)
			}
			c.Spec = ""
		}
	}
	return &sc, nil
}

// trimSpecName derives a class name from a spec path ("specs/session.spec"
// -> "session").
func trimSpecName(p string) string {
	base := filepath.Base(p)
	if ext := filepath.Ext(base); ext != "" {
		base = base[:len(base)-len(ext)]
	}
	return base
}

// classModel is one built class: derived, compiled, and parameterized.
type classModel struct {
	name      string
	fleet     *fsm.Fleet
	entities  map[int]*lotos.Spec
	digest    [32]byte
	maxEvents int
	sweepCost int64 // virtual ns per sweep at load 1
	slo       int64 // 0 = none
	// Arrival-process parameters (validated at build; each Run constructs
	// fresh generator state from them so a Model can run repeatedly).
	arrival string
	rate    float64
	shape   float64
}

// Model is a scenario compiled and ready to run: per-class derived
// protocols, compiled machine fleets and arrival generators. Building is
// the expensive part (derivation + compilation + minimization); one Model
// can Run any number of times and replay any session of its runs.
type Model struct {
	sc      *Scenario
	classes []*classModel
	router  router
	quantum int
}

// Build parses, derives and compiles every class of the scenario and
// validates all its parameters. Sessions of a class share its fleet's
// machines, so no session holds syntax trees of its own, and a step within
// the machines' state caps is a row read.
func Build(sc *Scenario) (*Model, error) {
	if sc.Sessions <= 0 {
		return nil, fmt.Errorf("cluster: scenario needs a positive session count, got %d", sc.Sessions)
	}
	if len(sc.Classes) == 0 {
		return nil, fmt.Errorf("cluster: scenario has no classes")
	}
	if sc.Replicas < 0 {
		return nil, fmt.Errorf("cluster: negative replica count %d", sc.Replicas)
	}
	m := &Model{sc: sc, quantum: sc.QuantumSweeps}
	if m.quantum <= 0 {
		m.quantum = 32
	}
	digests := make([][32]byte, len(sc.Classes))
	for i := range sc.Classes {
		cs := &sc.Classes[i]
		cm, err := buildClass(sc, i, cs)
		if err != nil {
			return nil, err
		}
		m.classes = append(m.classes, cm)
		digests[i] = cm.digest
	}
	r, err := newRouter(sc.Router, digests)
	if err != nil {
		return nil, err
	}
	m.router = r
	return m, nil
}

// buildClass derives and compiles one class.
func buildClass(sc *Scenario, idx int, cs *ClassSpec) (*classModel, error) {
	name := cs.Name
	if name == "" {
		name = fmt.Sprintf("class%d", idx)
	}
	if cs.Source == "" {
		return nil, fmt.Errorf("cluster: class %s: no spec source", name)
	}
	sp, err := lotos.Parse(cs.Source)
	if err != nil {
		return nil, fmt.Errorf("cluster: class %s: parse: %w", name, err)
	}
	// The digest is content-addressed over the canonical (pretty-printed)
	// form, the same normalization the pgd daemon's cache keys on.
	digest := sha256.Sum256([]byte(sp.String()))
	d, err := core.Derive(sp, core.Options{})
	if err != nil {
		return nil, fmt.Errorf("cluster: class %s: derive: %w", name, err)
	}
	fleet := fsm.CompileEntities(d.Entities, fsm.Config{MaxStates: cs.CompileMaxStates})
	// Validate the arrival process now (a nil RNG is fine — validation
	// never draws) and keep the canonical distribution name.
	gen, err := newArrivalGen(cs.Arrival, cs.RatePerSec, cs.Shape, nil)
	if err != nil {
		return nil, fmt.Errorf("%w (class %s)", err, name)
	}
	cm := &classModel{
		name:      name,
		fleet:     fleet,
		entities:  d.Entities,
		digest:    digest,
		maxEvents: cs.MaxEvents,
		arrival:   gen.dist,
		rate:      cs.RatePerSec,
		shape:     cs.Shape,
	}
	if cm.maxEvents <= 0 {
		cm.maxEvents = 32
	}
	cost := time.Microsecond
	if cs.SweepCost != "" {
		cost, err = time.ParseDuration(cs.SweepCost)
		if err != nil || cost <= 0 {
			return nil, fmt.Errorf("cluster: class %s: bad sweepCost %q", name, cs.SweepCost)
		}
	}
	cm.sweepCost = int64(cost)
	if cs.SLO != "" {
		slo, err := time.ParseDuration(cs.SLO)
		if err != nil || slo <= 0 {
			return nil, fmt.Errorf("cluster: class %s: bad slo %q", name, cs.SLO)
		}
		cm.slo = int64(slo)
	}
	return cm, nil
}
