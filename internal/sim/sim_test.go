package sim

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lotos"
	"repro/internal/medium"
)

func deriveFor(t testing.TB, src string) *core.Derivation {
	t.Helper()
	d, err := core.Derive(lotos.MustParse(src), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRunSequenceCompletes(t *testing.T) {
	d := deriveFor(t, "SPEC a1; b2; c3; exit ENDSPEC")
	res, err := Run(d.Entities, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("run did not complete: %+v", res)
	}
	if got := strings.Join(res.TraceStrings(), " "); got != "a1 b2 c3" {
		t.Errorf("trace = %q", got)
	}
	if res.Medium.Sent != 2 || res.Medium.Delivered != 2 {
		t.Errorf("medium stats: %+v", res.Medium)
	}
	if err := CheckTrace(d.Service.Spec, res, 0); err != nil {
		t.Error(err)
	}
}

// TestCheckTraceInconclusiveAtStateCap pins that a valid trace the state
// cap hides is reported as inconclusive, not as a violation: the capped
// service graph cannot contain the trace, but the cap, not the service,
// is the reason.
func TestCheckTraceInconclusiveAtStateCap(t *testing.T) {
	d := deriveFor(t, "SPEC a1; b2; c3; exit ENDSPEC")
	res, err := Run(d.Entities, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckTrace(d.Service.Spec, res, 0); err != nil {
		t.Fatalf("uncapped check rejected a valid trace: %v", err)
	}
	err = CheckTrace(d.Service.Spec, res, 2)
	if !errors.Is(err, ErrInconclusive) {
		t.Fatalf("2-state cap: got %v, want an error wrapping ErrInconclusive", err)
	}
	if strings.Contains(err.Error(), "not a service trace") {
		t.Errorf("inconclusive check reported as a violation: %v", err)
	}
}

func TestRunManySeeds(t *testing.T) {
	specs := []string{
		"SPEC a1; b2; exit ENDSPEC",
		"SPEC a1; exit ||| b2; exit ENDSPEC",
		"SPEC a1; b2; exit [] a1; c2; exit ENDSPEC",
		"SPEC a1; c3; b2; exit [] e1; b2; exit ENDSPEC",
		"SPEC a1; exit >> (b2; exit ||| c3; exit) >> d1; exit ENDSPEC",
	}
	for _, src := range specs {
		d := deriveFor(t, src)
		st, err := RunMany(d.Service.Spec, d.Entities, Config{Seed: 42}, 25, 0)
		if err != nil {
			t.Errorf("%s: %v", src, err)
			continue
		}
		if st.Completed != st.Runs {
			t.Errorf("%s: %d/%d runs completed (%+v)", src, st.Completed, st.Runs, st)
		}
	}
}

// TestRunManyKeepsCallerHarness: a harness the caller supplies drives
// RunMany's runs; only a nil harness is replaced by a seeded accept-all
// one per run. The first run completes along the script and the second,
// with the script used up, deadlocks at once.
func TestRunManyKeepsCallerHarness(t *testing.T) {
	d := deriveFor(t, "SPEC a1; b2; exit [] a1; c2; exit ENDSPEC")
	h := NewScripted([]string{"a1", "b2"})
	st, err := RunMany(d.Service.Spec, d.Entities, Config{Seed: 42, Harness: h}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h.Remaining() != 0 {
		t.Errorf("script not followed: %d entries left", h.Remaining())
	}
	if st.Completed != 1 || st.Deadlocked != 1 || st.Events != 2 {
		t.Errorf("stats %+v, want one completed 2-event run and one deadlock", st)
	}
}

func TestRunRecursiveServiceBounded(t *testing.T) {
	// Example 2: a^n b^n. Non-terminating choice may recurse forever, so
	// bound the run by events.
	d := deriveFor(t, `SPEC A WHERE PROC A = (a1; A >> b2; exit) [] (a1; b2; exit) END ENDSPEC`)
	for seed := int64(0); seed < 10; seed++ {
		res, err := Run(d.Entities, Config{Seed: seed, MaxEvents: 12})
		if err != nil {
			t.Fatal(err)
		}
		if res.TimedOut {
			t.Fatalf("seed %d timed out: %+v", seed, res)
		}
		if err := CheckTrace(d.Service.Spec, res, 200000); err != nil {
			t.Errorf("seed %d: %v (trace %v)", seed, err, res.TraceStrings())
		}
		// a^n b^n shape: every prefix has #b <= #a.
		as, bs := 0, 0
		for _, ev := range res.TraceStrings() {
			switch ev {
			case "a1":
				as++
			case "b2":
				bs++
			}
			if bs > as {
				t.Fatalf("seed %d: b2 before matching a1 in %v", seed, res.TraceStrings())
			}
		}
	}
}

func TestRunWithDelays(t *testing.T) {
	d := deriveFor(t, "SPEC a1; b2; c3; exit >> d2; e1; exit ENDSPEC")
	st, err := RunMany(d.Service.Spec, d.Entities, Config{
		Seed:   7,
		Medium: medium.Config{MaxDelay: 2},
	}, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != st.Runs {
		t.Errorf("with delays: %+v", st)
	}
}

func TestScriptedHarnessDrivesChoice(t *testing.T) {
	d := deriveFor(t, "SPEC a1; b2; exit [] c1; d3; b2; exit ENDSPEC")
	// Drive the right alternative.
	h := NewScripted([]string{"c1", "d3", "b2"})
	res, err := Run(d.Entities, Config{Seed: 3, Harness: h})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("not completed: %+v blocked=%v", res, res.Blocked)
	}
	if got := strings.Join(res.TraceStrings(), " "); got != "c1 d3 b2" {
		t.Errorf("trace = %q", got)
	}
	if h.Remaining() != 0 {
		t.Errorf("script not consumed: %d left", h.Remaining())
	}
}

func TestScriptedFileCopy(t *testing.T) {
	// Example 3 without the disable wrapper: copy two records.
	src := `
SPEC S WHERE
  PROC S = (read1; push2; S >> pop2; write3; exit)
        [] (eof1; make3; exit)
  END
ENDSPEC`
	d := deriveFor(t, src)
	script := []string{"read1", "push2", "read1", "push2", "eof1", "make3",
		"pop2", "write3", "pop2", "write3"}
	h := NewScripted(script)
	res, err := Run(d.Entities, Config{Seed: 11, Harness: h, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("file copy did not complete: blocked=%v trace=%v", res.Blocked, res.TraceStrings())
	}
	if len(res.Trace) != len(script) {
		t.Errorf("trace %v, want %v", res.TraceStrings(), script)
	}
	if err := CheckTrace(d.Service.Spec, res, 200000); err != nil {
		t.Error(err)
	}
}

func TestDisabledServiceRuns(t *testing.T) {
	// With the disable wrapper, runs complete either normally or through
	// the interrupt; every trace stays within the service's weak traces
	// EXCEPT for the documented Section 3.3 deviation, which is tolerated
	// here by accepting traces whose d3-free prefix is a service trace.
	d := deriveFor(t, "SPEC a1; b2; c3; exit [> d3; exit ENDSPEC")
	completed := 0
	for seed := int64(0); seed < 20; seed++ {
		res, err := Run(d.Entities, Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed {
			completed++
		}
		if res.TimedOut {
			t.Errorf("seed %d timed out: blocked=%v", seed, res.Blocked)
		}
	}
	if completed == 0 {
		t.Error("no run completed")
	}
}

func TestLossyMediumStallsProtocol(t *testing.T) {
	// The derived protocols assume the reliable medium of Section 1;
	// dropping messages stalls them (motivating the error-recovery
	// extension discussed in Section 6). With 100% loss the first
	// cross-place synchronization never arrives.
	d := deriveFor(t, "SPEC a1; b2; exit ENDSPEC")
	res, err := Run(d.Entities, Config{
		Seed:    5,
		Medium:  medium.Config{LossRate: 1.0},
		Timeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Error("protocol completed despite total message loss")
	}
	if !res.Deadlocked {
		t.Errorf("expected deadlock detection, got %+v", res)
	}
	if res.Medium.Dropped == 0 {
		t.Error("no drops recorded")
	}
	if got := strings.Join(res.TraceStrings(), " "); got != "a1" {
		t.Errorf("trace = %q, want only a1", got)
	}
}

func TestDeadlockDetectionOnBrokenEntities(t *testing.T) {
	// Two entities that each wait for the other's message first.
	entities := map[int]*lotos.Spec{
		1: lotos.MustParse("SPEC (r2(1); exit) >> s2(2); exit ENDSPEC"),
		2: lotos.MustParse("SPEC (r1(2); exit) >> s1(1); exit ENDSPEC"),
	}
	res, err := Run(entities, Config{Seed: 1, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deadlocked {
		t.Fatalf("expected deadlock, got %+v", res)
	}
	if len(res.Blocked) != 2 {
		t.Errorf("blocked = %v", res.Blocked)
	}
}

func TestMaxEventsStopsNonTerminating(t *testing.T) {
	d := deriveFor(t, `SPEC A WHERE PROC A = a1; b2; A END ENDSPEC`)
	res, err := Run(d.Entities, Config{Seed: 2, MaxEvents: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped || len(res.Trace) != 9 {
		t.Fatalf("res=%+v trace=%v", res, res.TraceStrings())
	}
	if err := CheckTrace(d.Service.Spec, res, 0); err != nil {
		t.Error(err)
	}
}

func TestCheckTraceRejectsBadTrace(t *testing.T) {
	service := lotos.MustParse("SPEC a1; b2; exit ENDSPEC")
	res := &Result{
		Trace: []TraceEvent{
			{Seq: 0, Place: 2, Ev: lotos.ServiceEvent("b", 2)},
			{Seq: 1, Place: 1, Ev: lotos.ServiceEvent("a", 1)},
		},
	}
	if err := CheckTrace(service, res, 0); err == nil {
		t.Error("reversed trace accepted")
	}
	// A completed run must be able to terminate.
	res2 := &Result{
		Trace:     []TraceEvent{{Seq: 0, Place: 1, Ev: lotos.ServiceEvent("a", 1)}},
		Completed: true,
	}
	if err := CheckTrace(service, res2, 0); err == nil {
		t.Error("premature termination accepted")
	}
}

func TestHarnessBasics(t *testing.T) {
	h := NewAcceptAll(1)
	if h.Choose(1, nil) != -1 {
		t.Error("empty offer must decline")
	}
	evs := []lotos.Event{lotos.ServiceEvent("a", 1), lotos.ServiceEvent("b", 1)}
	idx := h.Choose(1, evs)
	if idx < 0 || idx > 1 {
		t.Errorf("idx = %d", idx)
	}
	s := NewScripted([]string{"b1"})
	if s.Choose(1, evs) != 1 {
		t.Error("scripted must pick b1")
	}
	if s.Choose(1, evs) != -1 {
		t.Error("exhausted script must decline")
	}
}

func TestMediumFIFOAndStats(t *testing.T) {
	m := medium.New(medium.Config{Seed: 1})
	m.Send(medium.Message{From: 1, To: 2, Node: 10, Occ: "0"})
	m.Send(medium.Message{From: 1, To: 2, Node: 11, Occ: "0"})
	if m.InFlight() != 2 {
		t.Fatalf("in flight = %d", m.InFlight())
	}
	// Head must be consumed in order.
	if m.TryConsume(medium.Message{From: 1, To: 2, Node: 11, Occ: "0"}) {
		t.Error("out-of-order consume succeeded")
	}
	if !m.TryConsumeCheck(medium.Message{From: 1, To: 2, Node: 10, Occ: "0"}) {
		t.Error("head check failed")
	}
	if !m.TryConsume(medium.Message{From: 1, To: 2, Node: 10, Occ: "0"}) {
		t.Error("head consume failed")
	}
	if !m.TryConsume(medium.Message{From: 1, To: 2, Node: 11, Occ: "0"}) {
		t.Error("second consume failed")
	}
	st := m.Stats()
	if st.Sent != 2 || st.Delivered != 2 || st.Dropped != 0 {
		t.Errorf("stats %+v", st)
	}
	if got := m.Pending(1, 2); len(got) != 0 {
		t.Errorf("pending %v", got)
	}
}

func TestMediumMessageHelpers(t *testing.T) {
	send := lotos.SendEvent(3, 7).WithOcc("0/2")
	msg := medium.MessageFor(1, send)
	if msg.From != 1 || msg.To != 3 || msg.Node != 7 || msg.Occ != "0/2" {
		t.Errorf("msg %+v", msg)
	}
	recv := lotos.RecvEvent(1, 7).WithOcc("0/2")
	want := medium.WantedBy(3, recv)
	if msg != want {
		t.Errorf("send %v != want %v", msg, want)
	}
	if !strings.Contains(msg.String(), "1->3") {
		t.Errorf("msg string %q", msg)
	}
	tagged := medium.Message{From: 1, To: 2, Tag: "halt"}
	if !strings.Contains(tagged.String(), "halt") {
		t.Errorf("tag string %q", tagged)
	}
}

func TestMediumDelayedVisibility(t *testing.T) {
	const maxDelay = 20
	m := medium.New(medium.Config{Seed: 9, MaxDelay: maxDelay})
	msg := medium.Message{From: 1, To: 2, Node: 1, Occ: "0"}
	m.Send(msg)
	// Visible within MaxDelay sweeps.
	for sweeps := 0; !m.TryConsume(msg); sweeps++ {
		if sweeps == maxDelay {
			t.Fatal("delayed message never became visible")
		}
		m.Tick()
	}
}

func TestReliableLayerRecoversFromLoss(t *testing.T) {
	// The Section-6 error-recovery transformation realized as a transport
	// layer: the same derived protocol that stalls on a lossy medium
	// (TestLossyMediumStallsProtocol) completes when the stop-and-wait ARQ
	// layer provides reliable channels over the same lossy wire.
	d := deriveFor(t, "SPEC a1; b2; c3; exit >> d2; e1; exit ENDSPEC")
	completed := 0
	for seed := int64(0); seed < 10; seed++ {
		res, err := Run(d.Entities, Config{
			Seed:     seed,
			Reliable: true,
			Medium:   medium.Config{LossRate: 0.4},
			Timeout:  10 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed {
			completed++
		}
		if err := CheckTrace(d.Service.Spec, res, 0); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
	if completed != 10 {
		t.Errorf("only %d/10 lossy runs completed with ARQ", completed)
	}
}

func TestReliableLayerKeepsFIFOSemantics(t *testing.T) {
	// Without loss, the ARQ layer must be behaviourally transparent.
	d := deriveFor(t, "SPEC a1; b2; a1; b2; exit ENDSPEC")
	for seed := int64(0); seed < 10; seed++ {
		res, err := Run(d.Entities, Config{Seed: seed, Reliable: true})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatalf("seed %d incomplete: %+v", seed, res.Blocked)
		}
		if err := CheckTrace(d.Service.Spec, res, 0); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestARQStuckRunClassifiedLikeBareMedium: two entities that each send a
// message and then wait for one the other never sends. With MaxDelay 0
// every frame and its ack arrive within the sending sweep, so the first
// sweep without progress has nothing due on either medium's clock and
// classifies the run as stuck: after 2 sweeps, with or without the ARQ
// layer. An acknowledged frame's timeout must not be left due.
func TestARQStuckRunClassifiedLikeBareMedium(t *testing.T) {
	entities := map[int]*lotos.Spec{
		1: lotos.MustParse("SPEC s2(3); (r2(1); exit) >> s2(2); exit ENDSPEC"),
		2: lotos.MustParse("SPEC s1(4); (r1(2); exit) >> s1(1); exit ENDSPEC"),
	}
	for _, reliable := range []bool{false, true} {
		s, err := newSession(entities, Config{Seed: 1, Reliable: reliable})
		if err != nil {
			t.Fatal(err)
		}
		if _, done, err := s.StepN(0); err != nil || !done {
			t.Fatalf("reliable=%v: done=%v err=%v", reliable, done, err)
		}
		if !s.ls.TimedOut {
			t.Errorf("reliable=%v: not classified as stuck: %+v", reliable, s.Result())
		}
		if s.ls.Sweeps != 2 {
			t.Errorf("reliable=%v: classified after %d sweeps, want 2", reliable, s.ls.Sweeps)
		}
	}
}

func TestEventsByPlace(t *testing.T) {
	d := deriveFor(t, "SPEC a1; b2; c1; exit ENDSPEC")
	res, err := Run(d.Entities, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.EventsByPlace[1] != 2 || res.EventsByPlace[2] != 1 {
		t.Errorf("events by place: %v", res.EventsByPlace)
	}
}

func TestHandshakeInterruptRuntime(t *testing.T) {
	// The Section-3.3 handshake mode at runtime: the interrupt request and
	// acknowledgment use flushing receives (draining stale normal-part
	// messages), so interrupted runs complete cleanly.
	src := `
SPEC D [> d2; c1; exit WHERE
  PROC D = a1; b2; D END
ENDSPEC`
	d, err := core.Derive(lotos.MustParse(src), core.Options{Interrupt: core.InterruptHandshake})
	if err != nil {
		t.Fatal(err)
	}
	completed := 0
	for seed := int64(1); seed <= 20; seed++ {
		res, err := Run(d.Entities, Config{Seed: seed, MaxEvents: 10})
		if err != nil {
			t.Fatal(err)
		}
		if res.TimedOut {
			t.Fatalf("seed %d timed out: blocked=%v trace=%v", seed, res.Blocked, res.TraceStrings())
		}
		if res.Completed {
			completed++
			// A completed run must have gone through the interrupt.
			joined := strings.Join(res.TraceStrings(), " ")
			if !strings.Contains(joined, "d2") || !strings.HasSuffix(joined, "c1") {
				t.Errorf("seed %d: completed without interrupt path: %v", seed, res.TraceStrings())
			}
			// Property (a): no normal event after the interrupt.
			after := strings.SplitN(joined, "d2", 2)[1]
			if strings.Contains(after, "a1") || strings.Contains(after, "b2") {
				t.Errorf("seed %d: normal event after interrupt: %v", seed, res.TraceStrings())
			}
		}
		if err := CheckTrace(d.Service.Spec, res, 200000); err != nil {
			t.Errorf("seed %d: %v (trace %v)", seed, err, res.TraceStrings())
		}
	}
	if completed == 0 {
		t.Error("no handshake run completed")
	}
}
