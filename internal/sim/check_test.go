package sim

import "testing"

// TestCheckTraceLongChoiceLoop: a 30-event lockstep session of a looping
// choice is decided against the service. The determinized walk touches
// about two service states per event, so the check does not approach the
// default state cap however long the session runs.
func TestCheckTraceLongChoiceLoop(t *testing.T) {
	d := deriveFor(t, "SPEC A WHERE PROC A = (a1; b2; A) [] (c1; d3; A) END ENDSPEC")
	res, err := Run(d.Entities, Config{Seed: 1, MaxEvents: 30, Lockstep: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != 30 {
		t.Fatalf("session stopped after %d events, want 30", len(res.Trace))
	}
	if err := CheckTrace(d.Service.Spec, res, 0); err != nil {
		t.Fatalf("30-event session: %v", err)
	}
}

// TestCheckTraceViolationNamesRejectedEvent: a rejected trace names the
// first event the service refused and the events it allowed there.
func TestCheckTraceViolationNamesRejectedEvent(t *testing.T) {
	d := deriveFor(t, "SPEC a1; b2; exit ENDSPEC")
	res, err := Run(d.Entities, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	other := deriveFor(t, "SPEC a1; (c2; exit [] d2; exit) ENDSPEC")
	err = CheckTrace(other.Service.Spec, res, 0)
	want := `sim: observed trace "a1 b2" is not a service trace: event 2 "b2" rejected; service allowed [c2 d2]`
	if err == nil || err.Error() != want {
		t.Fatalf("got %v\nwant %s", err, want)
	}
}
