package wire

// The live-vs-lockstep differential gate, in-process: every corpus spec is
// deployed as one coordinator plus one goroutine per entity speaking the
// real TCP wire protocol over loopback, seeded sessions are driven to
// completion, and the protocol outcome must be byte-identical to sim.Run
// with the same seed. This is the test that
// makes the deployment layer trustworthy: the wire adds connections,
// framing, acks and a control plane, but must not add (or remove) a single
// observable behavior.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/compose"
	"repro/internal/core"
	"repro/internal/fsm"
	"repro/internal/lotos"
	"repro/internal/sim"
)

// wireMaxStates is the machines' state cap: large enough for every finite
// corpus entity, small enough that the unbounded ones overflow it — their
// rows past it are derived per visit and their messages miss the table
// (exercising verbose encoding live).
const wireMaxStates = 1024

// wireMaxEvents bounds non-terminating sessions, as in the sim sweep.
const wireMaxEvents = 24

// corpusEntry is one derived corpus member.
type corpusEntry struct {
	d         *core.Derivation
	disabling bool
}

// corpus parses and derives every repository corpus spec.
func corpus(t *testing.T) map[string]corpusEntry {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.spec"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus specs found: %v", err)
	}
	out := map[string]corpusEntry{}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := lotos.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: parse: %v", file, err)
		}
		d, err := core.Derive(sp, core.Options{})
		if err != nil {
			t.Fatalf("%s: derive: %v", file, err)
		}
		name := strings.TrimSuffix(filepath.Base(file), ".spec")
		out[name] = corpusEntry{d: d, disabling: strings.Contains(string(src), "[>")}
	}
	return out
}

// deployment is one in-process live deployment: a coordinator and one
// goroutine per entity, all speaking real TCP over loopback.
type deployment struct {
	coord  *Coordinator
	fleet  *fsm.Fleet
	logs   map[int]*bytes.Buffer
	errs   chan error
	places []int
}

// deployOptions tunes a test deployment.
type deployOptions struct {
	maxStates    int
	maxEvents    int
	rewritePeers func(place int, peers []Peer) []Peer
	timeout      time.Duration
}

// deploy starts coordinator and entities and waits for the mesh.
func deploy(t *testing.T, entities map[int]*lotos.Spec, opt deployOptions) *deployment {
	t.Helper()
	if opt.maxStates == 0 {
		opt.maxStates = wireMaxStates
	}
	if opt.timeout == 0 {
		opt.timeout = 30 * time.Second
	}
	fleet := fsm.CompileEntities(entities, fsm.Config{MaxStates: opt.maxStates})
	places := make([]int, 0, len(entities))
	for p := range entities {
		places = append(places, p)
	}
	sort.Ints(places)
	coord, err := NewCoordinator(CoordinatorConfig{
		N: len(places), Listen: "127.0.0.1:0",
		MaxEvents: opt.maxEvents, Timeout: opt.timeout, RewritePeers: opt.rewritePeers,
	})
	if err != nil {
		t.Fatal(err)
	}
	dep := &deployment{
		coord: coord, fleet: fleet,
		logs: map[int]*bytes.Buffer{}, errs: make(chan error, len(places)),
		places: places,
	}
	for i, p := range places {
		buf := &bytes.Buffer{}
		dep.logs[p] = buf
		go func(i, p int, buf *bytes.Buffer) {
			dep.errs <- RunEntity(EntityConfig{
				Place: p, PlaceIndex: i,
				Machine:     fleet.Machines[p],
				Coordinator: coord.Addr(), Listen: "127.0.0.1:0",
				ChannelCap: compose.DefaultChannelCap,
				TraceLog:   buf, SessionTimeout: opt.timeout,
			})
		}(i, p, buf)
	}
	if err := coord.WaitEntities(); err != nil {
		coord.Close()
		t.Fatalf("mesh establishment: %v", err)
	}
	return dep
}

// wait collects every entity's exit status after the session ended.
func (dep *deployment) wait(t *testing.T) {
	t.Helper()
	for range dep.places {
		if err := <-dep.errs; err != nil {
			t.Errorf("entity exit: %v", err)
		}
	}
	dep.coord.Close()
}

// TestCorpusLiveMatchesLockstep is the differential gate: for every corpus
// spec and a battery of seeds, the live deployment's seeded session outcome
// (trace + classification) is byte-identical to the in-process lockstep run
// with the same seed.
func TestCorpusLiveMatchesLockstep(t *testing.T) {
	if testing.Short() {
		t.Skip("live deployments are wall-clock-bound; skipped in -short")
	}
	const seeds = 3
	for name, entry := range corpus(t) {
		d := entry.d
		fleet := fsm.CompileEntities(d.Entities, fsm.Config{MaxStates: wireMaxStates})
		for seed := int64(0); seed < seeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				simRes, err := sim.Run(d.Entities, sim.Config{
					Seed: seed, MaxEvents: wireMaxEvents,
					Fleet: fleet,
				})
				if err != nil {
					t.Fatalf("lockstep run: %v", err)
				}
				dep := deploy(t, d.Entities, deployOptions{maxEvents: wireMaxEvents})
				rep, err := dep.coord.RunSeeded(seed)
				if err != nil {
					t.Fatalf("live session: %v", err)
				}
				dep.wait(t)
				if got, want := rep.Canonical(), CanonicalResult(simRes); got != want {
					t.Fatalf("live session diverges from lockstep\n live: %s\n sim:  %s", got, want)
				}
				checkLogsMatchReport(t, dep, rep)
			})
		}
	}
}

// checkLogsMatchReport parses every entity trace log and checks that the
// per-entity records reassemble exactly the coordinator's global trace —
// the soundness of the sequence-number merge the conformance checker
// relies on.
func checkLogsMatchReport(t *testing.T, dep *deployment, rep *SessionReport) {
	t.Helper()
	merged := make([]string, len(rep.Trace))
	for p, buf := range dep.logs {
		log, err := ParseTraceLog(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("entity %d log: %v", p, err)
		}
		if !log.DigestOK {
			t.Errorf("entity %d log: digest chain broken", p)
		}
		if !log.Ended {
			t.Errorf("entity %d log: no end record", p)
		}
		for _, rec := range log.Events {
			if rec.Seq < 0 || rec.Seq >= len(merged) {
				t.Fatalf("entity %d log: sequence %d outside global trace of %d", p, rec.Seq, len(merged))
			}
			if merged[rec.Seq] != "" {
				t.Fatalf("entity %d log: sequence %d assigned twice", p, rec.Seq)
			}
			merged[rec.Seq] = rec.Event
		}
	}
	for i, ev := range merged {
		if ev != rep.Trace[i] {
			t.Fatalf("merged log trace diverges at %d: %q != %q\n merged: %v\n report: %v",
				i, ev, rep.Trace[i], merged, rep.Trace)
		}
	}
}
