package conformance

import (
	"bytes"
	"testing"

	"repro/internal/lotos"
	"repro/internal/lts"
	"repro/internal/wire"
)

// fuzzService is the fixed service the fuzzed trace logs are checked
// against.
const fuzzService = `SPEC a1; b2; exit ENDSPEC`

// FuzzTraceLog feeds arbitrary bytes through the untrusted trace-log path:
// wire.ParseTraceLog, then Check against a fixed small service. Neither may
// panic; a complete report has no gaps and no stranded events; an accepted
// verdict's trace is a service trace.
func FuzzTraceLog(f *testing.F) {
	logOf := func(events []logRec, outcome string) []byte {
		var buf bytes.Buffer
		tw, err := wire.NewTraceWriter(&buf, 1, 1, 0, false)
		if err != nil {
			f.Fatal(err)
		}
		for _, r := range events {
			tw.Event(r.seq, r.ev)
		}
		if outcome != "" {
			tw.End(outcome)
		}
		return buf.Bytes()
	}
	f.Add(logOf([]logRec{{0, "a1"}, {1, "b2"}}, wire.OutcomeCompleted))
	f.Add(logOf([]logRec{{0, "a1"}}, wire.OutcomeDeadlocked))
	f.Add(logOf([]logRec{{0, "a1"}, {2, "b2"}}, wire.OutcomeStopped))
	f.Add(logOf([]logRec{{-1, "c1"}, {0, "zz9"}}, wire.OutcomeStopped))
	f.Add(logOf([]logRec{{0, "b2"}}, ""))
	f.Add([]byte(`{"kind":"start","place":1}` + "\n" + `{"kind":"end","outcome":"completed","digest":"cbf29ce484222325"}`))

	service, err := lotos.Parse(fuzzService)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		log, err := wire.ParseTraceLog(bytes.NewReader(data))
		if err != nil {
			return
		}
		rep, err := Check(lotos.CloneSpec(service), map[int]*wire.EntityLog{log.Place: log}, testMaxStates)
		if err != nil {
			return
		}
		if rep.Complete && (rep.Gaps != 0 || rep.Beyond != 0) {
			t.Fatalf("complete report with %d gaps and %d stranded events\nlog: %q", rep.Gaps, rep.Beyond, data)
		}
		if rep.Verdict == VerdictAccepted {
			st, err := lts.CheckServiceTrace(lotos.CloneSpec(service), rep.Trace, testMaxStates)
			if err != nil || !st.Accepted {
				t.Fatalf("accepted trace %q is not a service trace (err %v)\nlog: %q", rep.Trace, err, data)
			}
		}
	})
}
