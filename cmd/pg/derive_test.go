package main

import (
	"strings"
	"testing"

	"repro/internal/cli"
)

const ex3 = `
SPEC S [> interrupt3; exit WHERE
  PROC S = (read1; push2; S >> pop2; write3; exit)
        [] (eof1; make3; exit)
  END
ENDSPEC`

func TestPGStdin(t *testing.T) {
	code, out, _ := runPG(t, []string{"derive", "-"}, ex3)
	if code != cli.ExitOK {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"place 1", "place 2", "place 3", "interrupt3"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestPGAttrsAndComplexity(t *testing.T) {
	code, out, _ := runPG(t, []string{"derive", "-attrs", "-complexity", "-"}, ex3)
	if code != cli.ExitOK {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "ALL={1,2,3}") || !strings.Contains(out, "total                 14") {
		t.Errorf("missing attrs/complexity:\n%s", out)
	}
}

func TestPGSinglePlace(t *testing.T) {
	code, out, _ := runPG(t, []string{"derive", "-place", "2", "-"}, ex3)
	if code != cli.ExitOK {
		t.Fatalf("exit %d", code)
	}
	if strings.Contains(out, "read1") || !strings.Contains(out, "push2") {
		t.Errorf("place 2 output wrong:\n%s", out)
	}
}

func TestPGBadPlace(t *testing.T) {
	code, _, errw := runPG(t, []string{"derive", "-place", "7", "-"}, ex3)
	if code != cli.ExitUsage || !strings.Contains(errw, "not a service place") {
		t.Errorf("code=%d err=%q", code, errw)
	}
}

func TestPGRestrictionDiagnostics(t *testing.T) {
	code, _, errw := runPG(t, []string{"derive", "-"}, "SPEC a1; exit [] b2; exit ENDSPEC")
	if code != cli.ExitFail {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(errw, "R1") {
		t.Errorf("stderr: %q", errw)
	}
}

func TestPGParseError(t *testing.T) {
	code, _, errw := runPG(t, []string{"derive", "-"}, "garbage")
	if code != cli.ExitUsage || !strings.Contains(errw, "parse") {
		t.Errorf("code=%d err=%q", code, errw)
	}
}

func TestPGMissingInput(t *testing.T) {
	code, _, _ := runPG(t, []string{"derive", "derive"}, "")
	if code != cli.ExitUsage {
		t.Errorf("exit %d", code)
	}
}

func TestPG1986Flag(t *testing.T) {
	code, _, errw := runPG(t, []string{"derive", "-1986", "-"}, "SPEC a1; exit >> b2; exit ENDSPEC")
	if code != cli.ExitFail || !strings.Contains(errw, "1986") {
		t.Errorf("code=%d err=%q", code, errw)
	}
	code, out, _ := runPG(t, []string{"derive", "-1986", "-"}, "SPEC a1; b2; exit ENDSPEC")
	if code != cli.ExitOK || !strings.Contains(out, "place 1") {
		t.Errorf("1986 subset derivation failed: %d\n%s", code, out)
	}
}

func TestPGRawOutput(t *testing.T) {
	_, simp, _ := runPG(t, []string{"derive", "-place", "2", "-"}, "SPEC a1; exit >> b2; exit ENDSPEC")
	_, raws, _ := runPG(t, []string{"derive", "-raw", "-place", "2", "-"}, "SPEC a1; exit >> b2; exit ENDSPEC")
	if len(raws) <= len(simp) {
		t.Errorf("raw output should be longer:\n%s\nvs\n%s", raws, simp)
	}
}

func TestPGHandshakeFlag(t *testing.T) {
	src := "SPEC D [> d2; c1; exit WHERE PROC D = a1; b2; D END ENDSPEC"
	_, broadcast, _ := runPG(t, []string{"derive", "-place", "2", "-"}, src)
	code, hs, _ := runPG(t, []string{"derive", "-handshake", "-place", "2", "-"}, src)
	if code != cli.ExitOK {
		t.Fatalf("exit %d", code)
	}
	if hs == broadcast {
		t.Error("handshake mode produced identical entity text")
	}
	// The interrupter must wait for the acknowledgment before d2.
	if !strings.Contains(hs, "r1(") || !strings.Contains(hs, "d2") {
		t.Errorf("handshake entity malformed:\n%s", hs)
	}
}

func TestComplexityReport(t *testing.T) {
	code, out, _ := runPG(t, []string{"derive", "-complexity", "-"}, "SPEC a1; b2; c3; exit ENDSPEC")
	if code != cli.ExitOK {
		t.Fatalf("exit %d\n%s", code, out)
	}
	for _, want := range []string{
		"places n=3",
		"total                  2",
		"Centralized baseline",
		"distributed derivation needs fewer messages",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestComplexityPerNode(t *testing.T) {
	code, out, _ := runPG(t, []string{"derive", "-complexity", "-pernode", "-"}, "SPEC a1; b2; c3; exit ENDSPEC")
	if code != cli.ExitOK || !strings.Contains(out, "per-node costs:") || !strings.Contains(out, "seq") {
		t.Errorf("code=%d output:\n%s", code, out)
	}
}

func TestComplexityDisableNoBaseline(t *testing.T) {
	code, out, _ := runPG(t, []string{"derive", "-complexity", "-"}, "SPEC a1; b2; c3; exit [> d3; exit ENDSPEC")
	if code != cli.ExitOK {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "not applicable") {
		t.Errorf("baseline should be inapplicable for [>:\n%s", out)
	}
}

func TestComplexityServerFlag(t *testing.T) {
	code, out, _ := runPG(t, []string{"derive", "-complexity", "-server", "2", "-"}, "SPEC a1; b2; exit ENDSPEC")
	if code != cli.ExitOK || !strings.Contains(out, "server place:        2") {
		t.Errorf("code=%d output:\n%s", code, out)
	}
}

func TestComplexityErrors(t *testing.T) {
	if code, _, _ := runPG(t, []string{"derive", "-complexity"}, ""); code != cli.ExitUsage {
		t.Errorf("missing input exit %d", code)
	}
	if code, _, _ := runPG(t, []string{"derive", "-complexity", "-"}, "junk"); code != cli.ExitUsage {
		t.Errorf("parse error exit %d", code)
	}
	if code, _, _ := runPG(t, []string{"derive", "-complexity", "-"}, "SPEC i; a1; exit ENDSPEC"); code != cli.ExitFail {
		t.Errorf("invalid service exit %d", code)
	}
}
