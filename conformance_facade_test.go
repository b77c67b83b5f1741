package protoderive

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/wire"
)

// writeEntityLog writes one entity trace log file the way a pgdeploy entity
// would: a start record, the given (seq, event) records, and — unless the
// session is meant to look truncated — an end record.
func writeEntityLog(t *testing.T, dir string, place int, events [][2]interface{}, outcome string) string {
	t.Helper()
	path := filepath.Join(dir, "entity.ndjson")
	if place > 0 {
		path = filepath.Join(dir, "entity-"+string(rune('0'+place))+".ndjson")
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tw, err := wire.NewTraceWriter(f, place, 1, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if err := tw.Event(e[0].(int), e[1].(string)); err != nil {
			t.Fatal(err)
		}
	}
	if outcome != "" {
		if err := tw.End(outcome); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

// TestCheckTraceLogsFacade drives the conformance checker through the public
// facade: per-entity logs written with the wire trace writer, merged and
// replayed against the service.
func TestCheckTraceLogsFacade(t *testing.T) {
	svc, err := ParseService("SPEC read1; write2; exit ENDSPEC")
	if err != nil {
		t.Fatal(err)
	}

	t.Run("accepted", func(t *testing.T) {
		dir := t.TempDir()
		paths := []string{
			writeEntityLog(t, dir, 1, [][2]interface{}{{0, "read1"}}, wire.OutcomeCompleted),
			writeEntityLog(t, dir, 2, [][2]interface{}{{1, "write2"}}, wire.OutcomeCompleted),
		}
		rep, err := svc.CheckTraceLogs(paths, 0)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Verdict != "accepted" || !rep.TraceAccepted || !rep.Complete {
			t.Fatalf("verdict = %+v, want accepted/complete", rep)
		}
		if len(rep.Trace) != 2 || rep.Trace[0] != "read1" || rep.Trace[1] != "write2" {
			t.Fatalf("merged trace = %v", rep.Trace)
		}
		if rep.Outcome != wire.OutcomeCompleted {
			t.Fatalf("outcome = %q", rep.Outcome)
		}
	})

	t.Run("incomplete", func(t *testing.T) {
		dir := t.TempDir()
		paths := []string{
			writeEntityLog(t, dir, 1, [][2]interface{}{{0, "read1"}}, wire.OutcomeCompleted),
			// Entity 2 crashed before its end record: the session is
			// incomplete, but the recorded prefix is still a service trace.
			writeEntityLog(t, dir, 2, nil, ""),
		}
		rep, err := svc.CheckTraceLogs(paths, 0)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Verdict != "incomplete" || !rep.TraceAccepted || rep.Complete {
			t.Fatalf("verdict = %+v, want incomplete with accepted prefix", rep)
		}
	})

	t.Run("violation", func(t *testing.T) {
		dir := t.TempDir()
		paths := []string{
			// write2 before read1 is not a service trace.
			writeEntityLog(t, dir, 1, [][2]interface{}{{1, "read1"}}, wire.OutcomeCompleted),
			writeEntityLog(t, dir, 2, [][2]interface{}{{0, "write2"}}, wire.OutcomeCompleted),
		}
		rep, err := svc.CheckTraceLogs(paths, 0)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Verdict != "violation" || rep.TraceAccepted {
			t.Fatalf("verdict = %+v, want violation", rep)
		}
	})
}
