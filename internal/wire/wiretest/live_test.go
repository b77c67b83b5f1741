package wiretest

// The live fault-matrix test: the PR-4 fault matrix says the transport
// protocol is conformant over a reliable medium and deadlocks under message
// loss (cap 1). Both cells are re-established here on real sockets — the
// conformant cell as a seeded live session whose recorded trace the service
// accepts, the non-conformant cell by replaying the verification
// counterexample through a deployment whose wire actually loses the frames
// the witness loses, and checking that the recorded logs earn the deadlock
// verdict from the conformance checker.

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/compose"
	"repro/internal/core"
	"repro/internal/fsm"
	"repro/internal/lotos"
	"repro/internal/wire"
	"repro/internal/wire/conformance"
)

const (
	liveMaxStates = 1024
	liveMaxEvents = 24
)

// transportDerivation parses and derives specs/transport.spec.
func transportDerivation(t *testing.T) *core.Derivation {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "..", "specs", "transport.spec"))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := lotos.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.Derive(sp, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// cloneEntities deep-copies the entity map (exploration numbers trees in
// place).
func cloneEntities(m map[int]*lotos.Spec) map[int]*lotos.Spec {
	out := make(map[int]*lotos.Spec, len(m))
	for p, sp := range m {
		out[p] = lotos.CloneSpec(sp)
	}
	return out
}

// proxySet lazily creates one fault proxy per affected connection pair and
// splices it into the peer maps the coordinator distributes: the dialing
// (lower-place) entity of each pair is pointed at the proxy instead of the
// real peer.
type proxySet struct {
	faults Faults

	mu      sync.Mutex
	proxies map[[2]int]*Proxy
	t       *testing.T
}

func newProxySet(t *testing.T, faults Faults) *proxySet {
	ps := &proxySet{faults: faults, proxies: map[[2]int]*Proxy{}, t: t}
	t.Cleanup(ps.close)
	return ps
}

// pairs returns the unordered connection pairs the schedule touches.
func (ps *proxySet) pairs() map[[2]int]bool {
	out := map[[2]int]bool{}
	all := append(append(append([]ChannelSeq{}, ps.faults.Drop...), ps.faults.Duplicate...), ps.faults.Swap...)
	for _, c := range all {
		lo, hi := c.From, c.To
		if lo > hi {
			lo, hi = hi, lo
		}
		out[[2]int{lo, hi}] = true
	}
	return out
}

// rewrite is the CoordinatorConfig.RewritePeers hook.
func (ps *proxySet) rewrite(place int, peers []wire.Peer) []wire.Peer {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	out := append([]wire.Peer(nil), peers...)
	for pair := range ps.pairs() {
		if place != pair[0] {
			continue // only the dialing (lower) side goes through the proxy
		}
		for i, p := range out {
			if p.Place != pair[1] {
				continue
			}
			px := ps.proxies[pair]
			if px == nil {
				var err error
				px, err = NewProxy("127.0.0.1:0", p.Addr, ps.faults)
				if err != nil {
					ps.t.Errorf("proxy for pair %v: %v", pair, err)
					return out
				}
				ps.proxies[pair] = px
			}
			out[i].Addr = px.Addr()
		}
	}
	return out
}

func (ps *proxySet) close() {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for _, px := range ps.proxies {
		px.Close()
	}
}

// liveDeployment is an in-process deployment (coordinator + one goroutine
// per entity over loopback TCP), optionally faulted through a proxySet.
type liveDeployment struct {
	coord  *wire.Coordinator
	logs   map[int]*bytes.Buffer
	errs   chan error
	places []int
}

func deployLive(t *testing.T, entities map[int]*lotos.Spec, channelCap, maxEvents int,
	rewrite func(int, []wire.Peer) []wire.Peer) *liveDeployment {
	t.Helper()
	fleet := fsm.CompileEntities(entities, fsm.Config{MaxStates: liveMaxStates})
	table := wire.TableFromFleet(fleet)
	places := make([]int, 0, len(entities))
	for p := range entities {
		places = append(places, p)
	}
	sort.Ints(places)
	coord, err := wire.NewCoordinator(wire.CoordinatorConfig{
		N: len(places), Table: table, Listen: "127.0.0.1:0",
		MaxEvents: maxEvents, Timeout: 30 * time.Second, RewritePeers: rewrite,
	})
	if err != nil {
		t.Fatal(err)
	}
	dep := &liveDeployment{
		coord: coord, logs: map[int]*bytes.Buffer{},
		errs: make(chan error, len(places)), places: places,
	}
	for i, p := range places {
		buf := &bytes.Buffer{}
		dep.logs[p] = buf
		go func(i, p int, buf *bytes.Buffer) {
			dep.errs <- wire.RunEntity(wire.EntityConfig{
				Place: p, PlaceIndex: i,
				Machine: fleet.Machines[p],
				Table:   table, Coordinator: coord.Addr(), Listen: "127.0.0.1:0",
				ChannelCap: channelCap, TraceLog: buf,
				SessionTimeout: 30 * time.Second,
			})
		}(i, p, buf)
	}
	if err := coord.WaitEntities(); err != nil {
		coord.Close()
		t.Fatalf("mesh establishment: %v", err)
	}
	return dep
}

func (dep *liveDeployment) wait(t *testing.T) {
	t.Helper()
	for range dep.places {
		if err := <-dep.errs; err != nil {
			t.Errorf("entity exit: %v", err)
		}
	}
	dep.coord.Close()
}

// parseLogs parses every entity trace log.
func (dep *liveDeployment) parseLogs(t *testing.T) map[int]*wire.EntityLog {
	t.Helper()
	logs := map[int]*wire.EntityLog{}
	for p, buf := range dep.logs {
		log, err := wire.ParseTraceLog(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("entity %d log: %v", p, err)
		}
		logs[p] = log
	}
	return logs
}

// TestLiveFaultMatrixTransport re-establishes the PR-4 fault matrix's two
// transport/cap1 cells on real sockets.
func TestLiveFaultMatrixTransport(t *testing.T) {
	if testing.Short() {
		t.Skip("live deployments are wall-clock-bound; skipped in -short")
	}
	d := transportDerivation(t)

	// Conformant cell: reliable wire, seeded session; the recorded trace
	// must be accepted by the service.
	t.Run("reliable", func(t *testing.T) {
		dep := deployLive(t, d.Entities, compose.DefaultChannelCap, liveMaxEvents, nil)
		rep, err := dep.coord.RunSeeded(1)
		if err != nil {
			t.Fatalf("live session: %v", err)
		}
		dep.wait(t)
		if rep.Aborted {
			t.Fatalf("session aborted: %s", rep.Reason)
		}
		conf, err := conformance.Check(lotos.CloneSpec(d.Service.Spec), dep.parseLogs(t), 4096)
		if err != nil {
			t.Fatal(err)
		}
		if conf.Verdict != conformance.VerdictAccepted || !conf.TraceAccepted {
			t.Fatalf("reliable cell not accepted: %s (%s)", conf.Verdict, conf.Reason)
		}
	})

	// Non-conformant cell: verification under loss finds a deadlock witness;
	// the witness replays on a wire that actually drops the frames, and the
	// recorded logs earn the deadlock verdict.
	t.Run("loss", func(t *testing.T) {
		vrep, err := compose.Verify(lotos.CloneSpec(d.Service.Spec), cloneEntities(d.Entities), compose.VerifyOptions{
			ChannelCap: 1,
			Faults:     compose.FaultModel{Loss: true},
		})
		if err != nil {
			t.Fatalf("verify under loss: %v", err)
		}
		if vrep.Ok() || vrep.Witness == nil {
			t.Fatalf("fault matrix changed: transport/cap1/loss expected a witness, got ok=%v", vrep.Ok())
		}
		if vrep.Witness.Kind != compose.WitnessDeadlock {
			t.Fatalf("witness kind %q, want %q", vrep.Witness.Kind, compose.WitnessDeadlock)
		}
		plan, err := LossPlan(vrep.Witness)
		if err != nil {
			t.Fatalf("loss plan: %v", err)
		}
		if len(plan.Drop) == 0 {
			t.Fatal("deadlock witness without loss steps")
		}
		ps := newProxySet(t, plan)
		dep := deployLive(t, d.Entities, 1, 0, ps.rewrite)
		lrep, err := dep.coord.RunReplay(vrep.Witness)
		if err != nil {
			t.Fatalf("live replay: %v", err)
		}
		dep.wait(t)
		if !lrep.Deadlocked {
			t.Fatalf("live replay did not deadlock: %+v", lrep)
		}
		if got, want := len(lrep.Trace), len(vrep.Witness.Trace); got != want {
			t.Fatalf("replay trace %v, witness trace %v", lrep.Trace, vrep.Witness.Trace)
		}
		for i := range lrep.Trace {
			if lrep.Trace[i] != vrep.Witness.Trace[i] {
				t.Fatalf("replay trace %v diverges from witness trace %v", lrep.Trace, vrep.Witness.Trace)
			}
		}
		// The proxy performed exactly the planned drops.
		dropped := 0
		ps.mu.Lock()
		for _, px := range ps.proxies {
			dropped += px.Stats().Dropped
		}
		ps.mu.Unlock()
		if dropped != len(plan.Drop) {
			t.Fatalf("proxy dropped %d frames, plan had %d", dropped, len(plan.Drop))
		}
		conf, err := conformance.Check(lotos.CloneSpec(d.Service.Spec), dep.parseLogs(t), 4096)
		if err != nil {
			t.Fatal(err)
		}
		if conf.Verdict != conformance.VerdictDeadlock {
			t.Fatalf("loss cell verdict %s (%s), want deadlock", conf.Verdict, conf.Reason)
		}
		if !conf.TraceAccepted {
			t.Fatalf("deadlock witness trace must still be a service trace: %s", conf.Reason)
		}
	})
}
