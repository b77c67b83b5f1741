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
		"E15 —",
		"all experiments regenerated",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if strings.Contains(report, "FAILED") || strings.Contains(report, "ERROR") {
		t.Errorf("report contains failures:\n%s", report)
	}

	// E15 runs seeded lockstep simulations: a second regeneration prints
	// the same section byte for byte, and the ARQ column completes every
	// run at every loss rate.
	const e15 = `==== E15 — error recovery over a lossy medium (Section 6) ====
  run seeds 1..4
  loss=0%  bare=4/4  arq=4/4
  loss=30%  bare=0/4  arq=4/4
  loss=60%  bare=0/4  arq=4/4
`
	_, again, _ := runPG(t, []string{"experiments", "-quick"}, "")
	for i, r := range []string{report, again} {
		if got := e15Section(r); got != e15 {
			t.Errorf("run %d: E15 section\n%s\nwant\n%s", i+1, got, e15)
		}
	}
}

// e15Section cuts the E15 section out of an experiments report: from its
// header to the blank line that ends it.
func e15Section(report string) string {
	i := strings.Index(report, "==== E15")
	if i < 0 {
		return ""
	}
	s := report[i:]
	if j := strings.Index(s, "\n\n"); j >= 0 {
		s = s[:j+1]
	}
	return s
}
