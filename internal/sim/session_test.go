package sim

import (
	"reflect"
	"testing"

	"repro/internal/fsm"
)

// TestSessionMatchesLockstepRun checks the seam identity: a session stepped
// to completion — in one call or in small quanta — is the same execution as
// Run, over private or shared machines, seed for seed.
func TestSessionMatchesLockstepRun(t *testing.T) {
	srcs := []string{
		"SPEC a1; b2; c3; exit ENDSPEC",
		"SPEC a1; exit ||| b2; exit ENDSPEC",
		"SPEC a1; b2; exit [] c1; d3; b2; exit ENDSPEC",
		`SPEC A WHERE PROC A = a1; b2; A END ENDSPEC`,
	}
	for _, src := range srcs {
		d := deriveFor(t, src)
		fleet := fsm.CompileEntities(d.Entities, fsm.Config{})
		for seed := int64(0); seed < 12; seed++ {
			cfg := Config{Seed: seed, MaxEvents: 16}
			want, err := Run(d.Entities, cfg)
			if err != nil {
				t.Fatalf("%s seed %d run: %v", src, seed, err)
			}
			for _, quantum := range []int{0, 1, 3} {
				for _, f := range []*fsm.Fleet{nil, fleet} {
					scfg := cfg
					scfg.Fleet = f
					s, err := newSession(d.Entities, scfg)
					if err != nil {
						t.Fatalf("%s seed %d session: %v", src, seed, err)
					}
					for {
						_, done, err := s.StepN(quantum)
						if err != nil {
							t.Fatalf("%s seed %d step: %v", src, seed, err)
						}
						if done {
							break
						}
					}
					got := s.Result()
					if !reflect.DeepEqual(got.TraceStrings(), want.TraceStrings()) {
						t.Fatalf("%s seed %d shared %v quantum %d: trace %v, want %v",
							src, seed, f != nil, quantum, got.TraceStrings(), want.TraceStrings())
					}
					if got.Completed != want.Completed || got.Deadlocked != want.Deadlocked ||
						got.Stopped != want.Stopped || got.TimedOut != want.TimedOut {
						t.Fatalf("%s seed %d shared %v quantum %d: outcome %+v, want %+v",
							src, seed, f != nil, quantum, got, want)
					}
					if got.Medium.Sent != want.Medium.Sent || got.Medium.Delivered != want.Medium.Delivered {
						t.Fatalf("%s seed %d shared %v quantum %d: medium %+v, want %+v",
							src, seed, f != nil, quantum, got.Medium, want.Medium)
					}
				}
			}
		}
	}
}
