package cluster

// Package cluster is the fleet-scale discrete-event simulator: thousands to
// millions of concurrent protocol sessions — each over a machine fleet from
// the Section-4 derivation — multiplexed over simulated backend replicas on
// one virtual clock. There are no per-session goroutines and no wall-clock
// timers anywhere in the simulation: the engine is a single loop draining a
// binary event heap keyed by (virtual time, tie-break sequence), so a run is
// a pure function of the scenario and its seed — bit-reproducible across
// machines, runs, and GOMAXPROCS settings — and simulating a million
// sessions costs one goroutine and O(live sessions) memory.
//
// Time is int64 virtual nanoseconds. Each admitted session is pinned to a
// replica and advances in quanta: a quantum executes up to quantumSweeps
// lockstep sweeps of the session's entities (sim.Session.StepN) and charges
// virtual service time under processor sharing — sweeps × sweepCost ×
// active/speed, so a replica with twice the concurrent sessions serves each
// of them half as fast. Session latency is the virtual time from arrival to
// the end of its final quantum.
//
// Every random stream derives from the one scenario seed via sim.SubSeed:
// arrival processes use role roleArrival per class, and session i executes
// under sim.SubSeed(seed, sim.RoleSession, i) — which is why any single
// session of a cluster run can be replayed, exactly, through the ordinary
// simulator (ReplaySession).

import (
	"container/heap"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"strings"
	"time"

	"repro/internal/sim"
)

// roleArrival namespaces the per-class arrival streams in the SubSeed
// derivation tree, disjoint from the roles sim uses internally (1..4).
const roleArrival = 64

// Event kinds, in tie-break-independent order: kinds never need ordering
// among themselves because (time, seq) is already total.
const (
	evArrival = iota // idx is the class index
	evStep           // idx is the session id
	evDone           // idx is the session id
)

// event is one scheduled occurrence on the virtual clock. seq is the global
// insertion counter: two events at the same virtual time pop in scheduling
// order, making the drain order total and deterministic.
type event struct {
	at   int64
	seq  uint64
	kind int
	idx  int
}

// eventHeap is a binary min-heap over (at, seq).
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// replicaState is one simulated backend replica. active is the routing- and
// contention-visible load; busy accumulates delivered service demand.
type replicaState struct {
	active    int
	admitted  uint64
	completed uint64
	busy      int64 // Σ sweeps × sweepCost, virtual ns of demand served
	speed     float64
}

// sessionState is one in-flight session.
type sessionState struct {
	id      int
	class   int
	replica int
	seed    int64
	arrived int64
	sess    *sim.Session
}

// classAgg accumulates one class's counters and latency histogram.
type classAgg struct {
	arrivals, admitted, rejected          int
	completed, deadlocked, stopped, stuck int
	events                                uint64
	hist                                  Histogram
}

// ClassStats reports one SLO class of a finished run. Latency quantiles
// cover every admitted session (whatever its outcome); SLOAttainment is the
// fraction of them within the class SLO, or -1 when the class has none.
type ClassStats struct {
	Name                                  string
	Arrivals, Admitted, Rejected          int
	Completed, Deadlocked, Stopped, Stuck int
	Events                                uint64
	Mean, P50, P95, P99, Max              time.Duration
	Fairness                              float64
	SLO                                   time.Duration
	SLOAttainment                         float64
}

// ReplicaStats reports one replica of a finished run.
type ReplicaStats struct {
	Admitted    uint64
	Completed   uint64
	Busy        time.Duration
	Utilization float64
}

// SessionRecord identifies one session of a run completely: its class, seed
// and budget are everything ReplaySession needs to re-execute it, and its
// digest pins what that re-execution must produce.
type SessionRecord struct {
	ID       int
	Class    string
	ClassIdx int
	Seed     int64
	Replica  int // -1 when rejected
	Arrived  time.Duration
	Latency  time.Duration
	Outcome  string // completed | deadlocked | stopped | stuck | rejected
	Events   int
	Sweeps   int
	Digest   uint64 // FNV-1a over the session's service-primitive trace
}

// Result reports one cluster run. Everything except WallDuration and
// SessionsPerSec is a deterministic function of (scenario, seed); use
// Fingerprint for byte-comparable reproducibility checks.
type Result struct {
	Scenario                              string
	Seed                                  int64
	Router                                string
	Replicas                              int
	Arrivals, Admitted, Rejected          int
	Completed, Deadlocked, Stopped, Stuck int
	Events                                uint64
	VirtualDuration                       time.Duration
	WallDuration                          time.Duration
	SessionsPerSec                        float64
	Classes                               []ClassStats
	ReplicaStats                          []ReplicaStats
	ReplicaFairness                       float64 // Jain over per-replica admitted counts
	Digest                                uint64  // folds every session digest in completion order
	Sessions                              []SessionRecord
}

// Run executes the model once. Deterministic: two calls with the same
// scenario produce identical Results up to wall-clock fields.
func (m *Model) Run() (*Result, error) {
	wallStart := time.Now()
	sc := m.sc
	nReplicas := sc.Replicas
	if nReplicas == 0 {
		nReplicas = 1
	}
	replicas := make([]replicaState, nReplicas)
	for i := range replicas {
		replicas[i].speed = 1
	}
	var bucket *tokenBucket
	if sc.Admission != nil {
		bucket = newTokenBucket(sc.Admission.RatePerSec, sc.Admission.Burst)
	}

	// Per-run arrival generator state, derived fresh from the scenario seed
	// so repeated Runs of one Model are identical.
	gens := make([]*arrivalGen, len(m.classes))
	for i, cm := range m.classes {
		rng := rand.New(rand.NewPCG(uint64(sim.SubSeed(sc.Seed, roleArrival, i)), 0x9e3779b97f4a7c15))
		g, err := newArrivalGen(cm.arrival, cm.rate, cm.shape, rng)
		if err != nil {
			return nil, err
		}
		gens[i] = g
	}

	var h eventHeap
	var seq uint64
	push := func(at int64, kind, idx int) {
		heap.Push(&h, event{at: at, seq: seq, kind: kind, idx: idx})
		seq++
	}
	for i := range m.classes {
		push(gens[i].next(), evArrival, i)
	}

	aggs := make([]classAgg, len(m.classes))
	sessions := make(map[int]*sessionState)
	var records []SessionRecord
	if sc.KeepSessions {
		records = make([]SessionRecord, 0, sc.Sessions)
	}
	global := fnv.New64a()
	arrivalsLeft := sc.Sessions
	nextID := 0
	var now int64
	var totalEvents uint64

	for h.Len() > 0 {
		ev := heap.Pop(&h).(event)
		now = ev.at
		switch ev.kind {
		case evArrival:
			if arrivalsLeft <= 0 {
				continue // the cap was reached while this event was pending
			}
			arrivalsLeft--
			cls := ev.idx
			cm := m.classes[cls]
			id := nextID
			nextID++
			aggs[cls].arrivals++
			if arrivalsLeft > 0 {
				push(now+gens[cls].next(), evArrival, cls)
			}
			if !bucket.allow(now) {
				aggs[cls].rejected++
				if sc.KeepSessions {
					records = append(records, SessionRecord{
						ID: id, Class: cm.name, ClassIdx: cls,
						Seed:    sim.SubSeed(sc.Seed, sim.RoleSession, id),
						Replica: -1, Arrived: time.Duration(now), Outcome: "rejected",
					})
				}
				continue
			}
			rep := m.router.pick(cls, replicas)
			replicas[rep].active++
			replicas[rep].admitted++
			aggs[cls].admitted++
			seed := sim.SubSeed(sc.Seed, sim.RoleSession, id)
			sess, err := sim.NewFleetSession(cm.fleet, sim.Config{Seed: seed, MaxEvents: cm.maxEvents})
			if err != nil {
				return nil, fmt.Errorf("cluster: session %d (class %s): %w", id, cm.name, err)
			}
			sessions[id] = &sessionState{
				id: id, class: cls, replica: rep, seed: seed, arrived: now, sess: sess,
			}
			push(now, evStep, id)

		case evStep:
			st := sessions[ev.idx]
			cm := m.classes[st.class]
			rep := &replicas[st.replica]
			sweeps, done, err := st.sess.StepN(m.quantum)
			if err != nil {
				return nil, fmt.Errorf("cluster: session %d (class %s): %w", st.id, cm.name, err)
			}
			demand := int64(sweeps) * cm.sweepCost
			rep.busy += demand
			// Processor sharing: the replica divides its speed among its
			// active sessions, so this quantum's wall (virtual) time is the
			// demand inflated by the current contention.
			cost := int64(float64(demand) * float64(rep.active) / rep.speed)
			if done {
				push(now+cost, evDone, st.id)
			} else {
				push(now+cost, evStep, st.id)
			}

		case evDone:
			st := sessions[ev.idx]
			cm := m.classes[st.class]
			agg := &aggs[st.class]
			rep := &replicas[st.replica]
			res := st.sess.Result()
			outcome := classify(res)
			switch outcome {
			case "completed":
				agg.completed++
			case "deadlocked":
				agg.deadlocked++
			case "stopped":
				agg.stopped++
			default:
				agg.stuck++
			}
			latency := now - st.arrived
			agg.hist.Observe(time.Duration(latency))
			agg.events += uint64(len(res.Trace))
			totalEvents += uint64(len(res.Trace))
			rep.active--
			rep.completed++
			digest := TraceDigest(res.Trace)
			fmt.Fprintf(global, "%d:%016x\n", st.id, digest)
			if sc.KeepSessions {
				records = append(records, SessionRecord{
					ID: st.id, Class: cm.name, ClassIdx: st.class,
					Seed: st.seed, Replica: st.replica,
					Arrived: time.Duration(st.arrived), Latency: time.Duration(latency),
					Outcome: outcome, Events: len(res.Trace), Sweeps: st.sess.Sweeps(),
					Digest: digest,
				})
			}
			st.sess.Close()
			delete(sessions, st.id)
		}
	}

	r := &Result{
		Scenario:        sc.Name,
		Seed:            sc.Seed,
		Router:          routerName(sc.Router),
		Replicas:        nReplicas,
		Events:          totalEvents,
		VirtualDuration: time.Duration(now),
		Digest:          global.Sum64(),
		Sessions:        records,
	}
	loads := make([]float64, nReplicas)
	r.ReplicaStats = make([]ReplicaStats, nReplicas)
	for i := range replicas {
		rs := &replicas[i]
		util := 0.0
		if now > 0 {
			util = float64(rs.busy) / (float64(now) * rs.speed)
		}
		r.ReplicaStats[i] = ReplicaStats{
			Admitted: rs.admitted, Completed: rs.completed,
			Busy: time.Duration(rs.busy), Utilization: util,
		}
		loads[i] = float64(rs.admitted)
	}
	r.ReplicaFairness = JainIndex(loads)
	for i, cm := range m.classes {
		a := &aggs[i]
		cs := ClassStats{
			Name:     cm.name,
			Arrivals: a.arrivals, Admitted: a.admitted, Rejected: a.rejected,
			Completed: a.completed, Deadlocked: a.deadlocked,
			Stopped: a.stopped, Stuck: a.stuck,
			Events:        a.events,
			Mean:          a.hist.Mean(),
			P50:           a.hist.Quantile(0.50),
			P95:           a.hist.Quantile(0.95),
			P99:           a.hist.Quantile(0.99),
			Max:           a.hist.Max(),
			Fairness:      a.hist.Jain(),
			SLO:           time.Duration(cm.slo),
			SLOAttainment: -1,
		}
		if cm.slo > 0 && a.hist.Count() > 0 {
			cs.SLOAttainment = a.hist.CountBelow(time.Duration(cm.slo)) / float64(a.hist.Count())
		}
		r.Classes = append(r.Classes, cs)
		r.Arrivals += a.arrivals
		r.Admitted += a.admitted
		r.Rejected += a.rejected
		r.Completed += a.completed
		r.Deadlocked += a.deadlocked
		r.Stopped += a.stopped
		r.Stuck += a.stuck
	}
	r.WallDuration = time.Since(wallStart)
	if s := r.WallDuration.Seconds(); s > 0 {
		r.SessionsPerSec = float64(r.Admitted) / s
	}
	return r, nil
}

// classify names a finished session's outcome.
func classify(res *sim.Result) string {
	switch {
	case res.Completed:
		return "completed"
	case res.Deadlocked:
		return "deadlocked"
	case res.Stopped:
		return "stopped"
	default:
		return "stuck"
	}
}

// routerName canonicalizes the scenario's router field ("" means the
// default policy).
func routerName(name string) string {
	if name == "" {
		return RouteRoundRobin
	}
	return name
}

// TraceDigest hashes a service-primitive trace (FNV-1a over the rendered
// events). Cluster runs record it per session; replay checks against it.
func TraceDigest(trace []sim.TraceEvent) uint64 {
	h := fnv.New64a()
	for _, te := range trace {
		h.Write([]byte(te.String()))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// ReplaySession re-executes one recorded session through the ordinary
// simulator — sim.Run in lockstep over the class's compiled fleet under the
// recorded seed — and verifies the execution against the record: same trace
// digest, same event count, same outcome. This is the determinism contract
// made checkable: a cluster session is nothing but a sim run whose seed the
// scenario seed determines.
func (m *Model) ReplaySession(rec SessionRecord) (*sim.Result, error) {
	if rec.Outcome == "rejected" {
		return nil, fmt.Errorf("cluster: session %d was rejected at admission; nothing to replay", rec.ID)
	}
	if rec.ClassIdx < 0 || rec.ClassIdx >= len(m.classes) {
		return nil, fmt.Errorf("cluster: session %d names class %d of %d", rec.ID, rec.ClassIdx, len(m.classes))
	}
	cm := m.classes[rec.ClassIdx]
	res, err := sim.Run(cm.entities, sim.Config{
		Seed:      rec.Seed,
		MaxEvents: cm.maxEvents,
		Fleet:     cm.fleet,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: replaying session %d: %w", rec.ID, err)
	}
	if d := TraceDigest(res.Trace); d != rec.Digest {
		return nil, fmt.Errorf("cluster: session %d replay diverged: trace digest %016x, recorded %016x", rec.ID, d, rec.Digest)
	}
	if len(res.Trace) != rec.Events {
		return nil, fmt.Errorf("cluster: session %d replay diverged: %d events, recorded %d", rec.ID, len(res.Trace), rec.Events)
	}
	if got := classify(res); got != rec.Outcome {
		return nil, fmt.Errorf("cluster: session %d replay diverged: outcome %s, recorded %s", rec.ID, got, rec.Outcome)
	}
	return res, nil
}

// Fingerprint renders every deterministic field of the result as one
// canonical string: two runs of one scenario must produce byte-identical
// fingerprints (wall-clock fields are excluded). The determinism tests and
// the CLI's -fingerprint flag compare exactly this.
func (r *Result) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario=%s seed=%d router=%s replicas=%d\n", r.Scenario, r.Seed, r.Router, r.Replicas)
	fmt.Fprintf(&b, "arrivals=%d admitted=%d rejected=%d completed=%d deadlocked=%d stopped=%d stuck=%d\n",
		r.Arrivals, r.Admitted, r.Rejected, r.Completed, r.Deadlocked, r.Stopped, r.Stuck)
	fmt.Fprintf(&b, "events=%d virtual=%s digest=%016x replicaFairness=%.9f\n",
		r.Events, r.VirtualDuration, r.Digest, r.ReplicaFairness)
	for _, c := range r.Classes {
		fmt.Fprintf(&b, "class=%s arrivals=%d admitted=%d rejected=%d completed=%d deadlocked=%d stopped=%d stuck=%d events=%d mean=%s p50=%s p95=%s p99=%s max=%s fairness=%.9f slo=%s attainment=%.9f\n",
			c.Name, c.Arrivals, c.Admitted, c.Rejected, c.Completed, c.Deadlocked, c.Stopped, c.Stuck,
			c.Events, c.Mean, c.P50, c.P95, c.P99, c.Max, c.Fairness, c.SLO, c.SLOAttainment)
	}
	for i, rs := range r.ReplicaStats {
		fmt.Fprintf(&b, "replica=%d admitted=%d completed=%d busy=%s util=%.9f\n",
			i, rs.Admitted, rs.Completed, rs.Busy, rs.Utilization)
	}
	return b.String()
}
