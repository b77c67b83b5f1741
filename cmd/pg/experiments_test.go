package main

import (
	"strings"
	"testing"

	"repro/internal/cli"
)

func TestExperimentsReport(t *testing.T) {
	code, report, _ := runPG(t, []string{"experiments", "-quick"}, "")
	if code != cli.ExitOK {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{
		"E1 —", "ALL={1,2,3}",
		"E2 —", "Protocol entity for place 3",
		"E6 —", "a1 a1 b2 b2",
		"E8 —", "total                 14",
		"E9 —", "weakly bisimilar (exact)",
		"E10 —", "centralized=6    distributed=3",
		"E11 —", "deadlocks: 1",
		"E13 —", "5 -> 2 messages",
		"E14 —", "traces-equal=true",
		"E15 —", "arq=4/4",
		"all experiments regenerated",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if strings.Contains(report, "FAILED") || strings.Contains(report, "ERROR") {
		t.Errorf("report contains failures:\n%s", report)
	}
}
