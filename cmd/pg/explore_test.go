package main

import (
	"strings"
	"testing"

	"repro/internal/cli"
)

func TestLotosimBasics(t *testing.T) {
	code, out, _ := runPG(t, []string{"explore", "-"}, "SPEC a1; b2; exit ENDSPEC")
	if code != cli.ExitOK {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"states:      4", "transitions: 3", "deadlocks:   0"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestLotosimTraces(t *testing.T) {
	code, out, _ := runPG(t, []string{"explore", "-traces", "4", "-"},
		"SPEC A WHERE PROC A = (a1; A >> b2; exit) [] (a1; b2; exit) END ENDSPEC")
	if code != cli.ExitOK {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "a1 a1 b2 b2") || strings.Contains(out, "b2 a1") {
		t.Errorf("traces wrong:\n%s", out)
	}
}

func TestLotosimDeadlockExit(t *testing.T) {
	code, out, _ := runPG(t, []string{"explore", "-"}, "SPEC a1; b2; exit || a1; c3; exit ENDSPEC")
	if code != cli.ExitFail {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "deadlocks:   1") || !strings.Contains(out, "deadlocked state:") {
		t.Errorf("output:\n%s", out)
	}
}

func TestLotosimTransitions(t *testing.T) {
	code, out, _ := runPG(t, []string{"explore", "-transitions", "-"}, "SPEC a1; exit ENDSPEC")
	if code != cli.ExitOK || !strings.Contains(out, "--a1-->") {
		t.Errorf("code=%d output:\n%s", code, out)
	}
}

func TestLotosimErrors(t *testing.T) {
	if code, _, _ := runPG(t, []string{"explore", "-"}, "nope"); code != cli.ExitUsage {
		t.Errorf("parse error exit %d", code)
	}
	if code, _, _ := runPG(t, []string{"explore"}, ""); code != cli.ExitUsage {
		t.Errorf("missing input exit %d", code)
	}
	// Unguarded recursion is an analysis failure.
	if code, _, errw := runPG(t, []string{"explore", "-"}, "SPEC A WHERE PROC A = A END ENDSPEC"); code != cli.ExitFail || !strings.Contains(errw, "unguarded") {
		t.Errorf("unguarded exit %d err %q", code, errw)
	}
}

func TestLotosimMinimize(t *testing.T) {
	code, out, _ := runPG(t, []string{"explore", "-minimize", "-"},
		"SPEC exit >> (exit >> a1; exit) ENDSPEC")
	if code != cli.ExitOK || !strings.Contains(out, "quotient:") {
		t.Errorf("code=%d output:\n%s", code, out)
	}
}

func TestLotosimDot(t *testing.T) {
	code, out, _ := runPG(t, []string{"explore", "-dot", "-"}, "SPEC a1; b2; exit ENDSPEC")
	if code != cli.ExitOK {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"digraph lts", "label=\"a1\"", "label=\"b2\"", "doublecircle"} {
		if !strings.Contains(out, want) {
			t.Errorf("dot output missing %q:\n%s", want, out)
		}
	}
}

func TestLotosimDotMinimized(t *testing.T) {
	code, out, _ := runPG(t, []string{"explore", "-dot", "-minimize", "-"},
		"SPEC exit >> (exit >> a1; exit) ENDSPEC")
	if code != cli.ExitOK || !strings.Contains(out, "digraph") {
		t.Errorf("code=%d\n%s", code, out)
	}
	// The quotient collapses the internal prelude: few nodes.
	if n := strings.Count(out, "n0 ->"); n == 0 {
		t.Errorf("no edges from the initial class:\n%s", out)
	}
}
