package protoderive

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzDerive pushes arbitrary input through the full facade pipeline:
// parse, validate, derive, render. Two things may never happen, whatever
// the fuzzer finds: a panic escaping the facade, and a recovered internal
// panic (which guard() converts into a marked error — the fuzzer treats
// that marker as a bug too, so panic sites inside the library are still
// discoverable).
func FuzzDerive(f *testing.F) {
	matches, err := filepath.Glob(filepath.Join("specs", "*.spec"))
	if err != nil {
		f.Fatal(err)
	}
	if len(matches) == 0 {
		f.Fatal("no seed specs found under specs/")
	}
	for _, m := range matches {
		data, err := os.ReadFile(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	f.Add("SPEC a1; b2; exit ENDSPEC")
	f.Add("SPEC a1; exit [] b2; exit ENDSPEC") // R1 violation: must error, not panic
	f.Add("SPEC hide g in (a1; g; exit ||| g; b2; exit) ENDSPEC")

	f.Fuzz(func(t *testing.T, src string) {
		svc, err := ParseService(src)
		if err != nil {
			failOnInternal(t, src, err)
			return
		}
		proto, err := svc.Derive()
		if err != nil {
			failOnInternal(t, src, err)
			return
		}
		_ = proto.Render()
		_ = proto.MessageCount()
	})
}

// FuzzVerifyFaults pushes arbitrary sources and fault configurations through
// derivation, fault-model verification, and counterexample replay. Invariants:
// no panic ever escapes, every witness attached to a verdict replays cleanly
// through the concrete runtime, and the replayed observable trace matches
// the witness's.
func FuzzVerifyFaults(f *testing.F) {
	matches, err := filepath.Glob(filepath.Join("specs", "*.spec"))
	if err != nil {
		f.Fatal(err)
	}
	for _, m := range matches {
		data, err := os.ReadFile(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data), byte(1), byte(1))
	}
	f.Add("SPEC a1; b2; exit ENDSPEC", byte(1), byte(1)) // loss, cap 1
	f.Add("SPEC a1; b2; c1; exit ENDSPEC", byte(2), byte(2))
	f.Add("SPEC a1; b2; c3; exit ENDSPEC", byte(7), byte(2)) // all faults

	f.Fuzz(func(t *testing.T, src string, faultBits, chanCap byte) {
		svc, err := ParseService(src)
		if err != nil {
			failOnInternal(t, src, err)
			return
		}
		proto, err := svc.Derive()
		if err != nil {
			failOnInternal(t, src, err)
			return
		}
		fm := FaultModel{
			Loss:        faultBits&1 != 0,
			Duplication: faultBits&2 != 0,
			Reorder:     faultBits&4 != 0,
		}
		// Small bounds keep each fuzz iteration cheap; truncation is a
		// legitimate outcome the invariants must survive.
		rep, err := proto.Verify(&VerifyOptions{
			Faults:     fm,
			ChannelCap: int(chanCap%3) + 1,
			ObsDepth:   3,
			MaxStates:  2000,
		})
		if err != nil {
			failOnInternal(t, src, err)
			return
		}
		if rep.Ok && rep.Witness != nil {
			t.Fatalf("conformant verdict carries a witness\ninput: %q", src)
		}
		if rep.Witness == nil {
			return
		}
		res, err := proto.Replay(rep.Witness)
		if err != nil {
			t.Fatalf("witness does not replay: %v\ninput: %q faults=%s", err, src, fm)
		}
		if len(res.Trace) != len(rep.Witness.Trace) {
			t.Fatalf("replay trace %v != witness trace %v\ninput: %q", res.Trace, rep.Witness.Trace, src)
		}
		for i := range res.Trace {
			if res.Trace[i] != rep.Witness.Trace[i] {
				t.Fatalf("replay trace %v != witness trace %v\ninput: %q", res.Trace, rep.Witness.Trace, src)
			}
		}
	})
}

func failOnInternal(t *testing.T, src string, err error) {
	t.Helper()
	if strings.Contains(err.Error(), "internal error") {
		t.Fatalf("input triggered a recovered panic: %v\ninput: %q", err, src)
	}
}
