package sim

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/fsm"
	"repro/internal/medium"
)

func TestEngineFSMCompletes(t *testing.T) {
	d := deriveFor(t, "SPEC a1; b2; c3; exit ENDSPEC")
	res, err := Run(d.Entities, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("run did not complete: %+v", res)
	}
	if err := CheckTrace(d.Service.Spec, res, 0); err != nil {
		t.Error(err)
	}
}

func TestEngineFSMSharedFleet(t *testing.T) {
	d := deriveFor(t, "SPEC a1; exit ||| b2; exit ENDSPEC")
	fleet := fsm.CompileEntities(d.Entities, fsm.Config{})
	if len(fleet.Errors) != 0 {
		t.Fatalf("machine errors: %v", fleet.Errors)
	}
	for seed := int64(0); seed < 20; seed++ {
		res, err := Run(d.Entities, Config{Seed: seed, Fleet: fleet})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatalf("seed %d: %+v", seed, res)
		}
		if err := CheckTrace(d.Service.Spec, res, 0); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// anbnSpec is Example 2 (a^n b^n): its derived entities stack one
// continuation per recursion level, so their state spaces are unbounded.
const anbnSpec = `SPEC A WHERE PROC A = (a1; A >> b2; exit) [] (a1; b2; exit) END ENDSPEC`

// TestEngineFSMMixedFleet runs unbounded entities past a small state cap:
// the machines retain at most the cap, derive the rows beyond it on every
// visit, and still produce service traces — the concurrent runs included.
func TestEngineFSMMixedFleet(t *testing.T) {
	d := deriveFor(t, anbnSpec)
	const cap = 8
	fleet := fsm.CompileEntities(d.Entities, fsm.Config{MaxStates: cap})
	for seed := int64(0); seed < 10; seed++ {
		res, err := Run(d.Entities, Config{Seed: seed, MaxEvents: 12, Fleet: fleet})
		if err != nil {
			t.Fatal(err)
		}
		if res.TimedOut {
			t.Fatalf("seed %d timed out: %+v", seed, res)
		}
		if err := CheckTrace(d.Service.Spec, res, 200000); err != nil {
			t.Errorf("seed %d: %v (trace %v)", seed, err, res.TraceStrings())
		}
	}
	for p, m := range fleet.Machines {
		if n := m.Retained(); n > cap {
			t.Errorf("entity %d retains %d states, cap %d", p, n, cap)
		}
		if _, err := m.Minimized(); err == nil {
			t.Errorf("entity %d: minimized layer closed under cap %d, want a cap overflow", p, cap)
		}
	}
}

func TestLockstepEnginesAgree(t *testing.T) {
	specs := []string{
		"SPEC a1; b2; exit ENDSPEC",
		"SPEC a1; exit ||| b2; exit ENDSPEC",
		"SPEC a1; b2; exit [] a1; c2; exit ENDSPEC",
		"SPEC a1; c3; b2; exit [] e1; b2; exit ENDSPEC",
		"SPEC a1; exit >> (b2; exit ||| c3; exit) >> d1; exit ENDSPEC",
		anbnSpec,
	}
	for _, src := range specs {
		d := deriveFor(t, src)
		fleet := fsm.CompileEntities(d.Entities, fsm.Config{MaxStates: 4})
		for seed := int64(0); seed < 25; seed++ {
			cfg := Config{Seed: seed, MaxEvents: 40}
			want, err := runReference(t, d.Entities, cfg)
			if err != nil {
				t.Fatalf("%s seed %d reference: %v", src, seed, err)
			}
			for _, f := range []*fsm.Fleet{nil, fleet} {
				cfg.Fleet = f
				got, _, err := runMachines(t, d.Entities, cfg)
				if err != nil {
					t.Fatalf("%s seed %d machines: %v", src, seed, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s seed %d (shared cap-4 fleet %v): runs diverge\n machines:  %+v\n reference: %+v",
						src, seed, f != nil, got, want)
				}
			}
		}
	}
}

func TestLockstepDeterministic(t *testing.T) {
	d := deriveFor(t, "SPEC a1; exit >> (b2; exit ||| c3; exit) >> d1; exit ENDSPEC")
	fleet := fsm.CompileEntities(d.Entities, fsm.Config{})
	for _, f := range []*fsm.Fleet{nil, fleet} {
		first, err := Run(d.Entities, Config{Seed: 7, Fleet: f})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			again, err := Run(d.Entities, Config{Seed: 7, Fleet: f})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(first.TraceStrings(), again.TraceStrings()) {
				t.Fatalf("shared fleet %v: lockstep not reproducible: %v vs %v",
					f != nil, first.TraceStrings(), again.TraceStrings())
			}
		}
	}
}

// TestSharedFleetConcurrentSessions runs seeded sessions from 8 goroutines
// over one fleet that starts with no row filled, so rows are filled and
// read concurrently, at the default cap and at one small enough that most
// rows are derived per visit. Every session must equal its serial run over
// a private fleet. Run it under -race (make check repeats it).
func TestSharedFleetConcurrentSessions(t *testing.T) {
	const workers, perWorker = 8, 6
	for _, src := range []string{anbnSpec, "SPEC a1; exit >> (b2; exit ||| c3; exit) >> d1; exit ENDSPEC"} {
		d := deriveFor(t, src)
		for _, cap := range []int{0, 16} {
			want := make([]runOutcome, workers*perWorker)
			for i := range want {
				cfg := Config{Seed: int64(i), MaxEvents: 30, Compile: fsm.Config{MaxStates: cap}}
				out, _, err := runMachines(t, d.Entities, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = out
			}
			shared := fsm.CompileEntities(d.Entities, fsm.Config{MaxStates: cap})
			got := make([]runOutcome, len(want))
			errs := make([]error, len(want))
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for j := 0; j < perWorker; j++ {
						i := j*workers + w
						got[i], _, errs[i] = runMachines(t, d.Entities, Config{Seed: int64(i), MaxEvents: 30, Fleet: shared})
					}
				}(w)
			}
			wg.Wait()
			for i := range want {
				if errs[i] != nil {
					t.Fatalf("%s cap %d seed %d: %v", src, cap, i, errs[i])
				}
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("%s cap %d seed %d: concurrent run diverges from serial\n got:  %+v\n want: %+v",
						src, cap, i, got[i], want[i])
				}
			}
		}
	}
}

// TestRetainedStatesBounded runs the tail-recursive loop far past the state
// cap: every recursion stamps a longer occurrence path on the instance, so
// each visit is a new state. The machines must keep at most cap states
// while the run goes on, identical to the reference.
func TestRetainedStatesBounded(t *testing.T) {
	d := deriveFor(t, "SPEC A WHERE PROC A = a1; b2; c3; A END ENDSPEC")
	const cap = 64
	fleet := fsm.CompileEntities(d.Entities, fsm.Config{MaxStates: cap})
	cfg := Config{Seed: 3, MaxEvents: 600}
	want, err := runReference(t, d.Entities, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Fleet = fleet
	got, _, err := runMachines(t, d.Entities, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("runs diverge past the cap\n machines:  %+v\n reference: %+v", got, want)
	}
	if !got.Stopped || len(got.Trace) != 600 {
		t.Fatalf("run ended early: %d events, %+v", len(got.Trace), got)
	}
	for p, m := range fleet.Machines {
		if n := m.Retained(); n != cap {
			t.Errorf("entity %d retains %d states, want the cap %d reached and held", p, n, cap)
		}
	}
}

// TestSessionWithARQAndDelayMatchesRun checks that the virtual-clock
// medium keeps the seam identity: a session over the ARQ layer on a lossy,
// delaying wire, stepped in small quanta, is the execution Run gives for
// the same seed.
func TestSessionWithARQAndDelayMatchesRun(t *testing.T) {
	d := deriveFor(t, "SPEC a1; b2; c3; exit >> d2; e1; exit ENDSPEC")
	for seed := int64(1); seed <= 10; seed++ {
		cfg := Config{Seed: seed, Reliable: true, Medium: medium.Config{LossRate: 0.4, MaxDelay: 3}}
		want, err := Run(d.Entities, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !want.Completed {
			t.Fatalf("seed %d: ARQ run did not complete: %+v", seed, want.Blocked)
		}
		s, err := newSession(d.Entities, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for {
			_, done, err := s.StepN(2)
			if err != nil {
				t.Fatal(err)
			}
			if done {
				break
			}
		}
		if got := s.Result(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: session %+v, run %+v", seed, got, want)
		}
	}
}
