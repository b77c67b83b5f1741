package main

import (
	"strings"
	"testing"

	"repro/internal/cli"
)

func runPG(t *testing.T, args []string, stdin string) (int, string, string) {
	t.Helper()
	var out, errw strings.Builder
	code := run(args, strings.NewReader(stdin), &out, &errw)
	return code, out.String(), errw.String()
}

func TestPGNoSubcommand(t *testing.T) {
	code, out, errw := runPG(t, nil, "")
	if code != cli.ExitUsage || out != "" {
		t.Fatalf("exit %d, stdout %q", code, out)
	}
	for _, name := range []string{"derive", "verify", "explore", "experiments"} {
		if !strings.Contains(errw, "  "+name+" ") {
			t.Errorf("usage does not list %q:\n%s", name, errw)
		}
	}
}

func TestPGUnknownSubcommand(t *testing.T) {
	// A file name is not a subcommand: pg never derives without one.
	for _, arg := range []string{"frobnicate", "-", "service.spec", "-attrs"} {
		code, _, errw := runPG(t, []string{arg}, "SPEC a1; exit ENDSPEC")
		if code != cli.ExitUsage || !strings.Contains(errw, "unknown subcommand") || !strings.Contains(errw, "subcommands:") {
			t.Errorf("pg %s: exit %d, stderr %q", arg, code, errw)
		}
	}
}
