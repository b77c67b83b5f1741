package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/lotos"
)

func TestVerifyOK(t *testing.T) {
	code, out, _ := runPG(t, []string{"verify", "-"}, "SPEC a1; b2; c3; exit ENDSPEC")
	if code != cli.ExitOK {
		t.Fatalf("exit %d\n%s", code, out)
	}
	for _, want := range []string{"weak bisimulation: true", "verdict: OK"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestVerifyWithSimulation(t *testing.T) {
	code, out, _ := runPG(t, []string{"verify", "-sim", "3", "-"}, "SPEC a1; b2; exit ENDSPEC")
	if code != cli.ExitOK {
		t.Fatalf("exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "simulation: 3 runs, 3 completed") {
		t.Errorf("simulation summary missing:\n%s", out)
	}
}

// TestVerifySimReproducible pins -sim to its seed: the runs are lockstep,
// so the same invocation prints the same report byte for byte, here
// including the Section-3.3 trace violation of a disabling spec.
func TestVerifySimReproducible(t *testing.T) {
	args := []string{"verify", "-depth", "5", "-sim", "20", "-seed", "1", filepath.Join("..", "..", "specs", "example6.spec")}
	_, first, _ := runPG(t, args, "")
	if !strings.Contains(first, "simulation: TRACE VIOLATION: seed 3:") {
		t.Fatalf("expected the seed-3 violation:\n%s", first)
	}
	if _, again, _ := runPG(t, args, ""); again != first {
		t.Errorf("same -sim -seed invocation printed different reports:\n%s\nvs\n%s", first, again)
	}
}

func TestVerifyDisableNote(t *testing.T) {
	code, out, _ := runPG(t, []string{"verify", "-depth", "5", "-"},
		"SPEC a1; b2; c3; exit [> d3; exit ENDSPEC")
	if code != cli.ExitFail {
		t.Fatalf("exit %d (the strict check must fail for [>)", code)
	}
	if !strings.Contains(out, "Section-3.3") {
		t.Errorf("missing disabling note:\n%s", out)
	}
}

func TestVerifyOptimize(t *testing.T) {
	code, out, _ := runPG(t,
		[]string{"verify", "-optimize", "-depth", "6", "-maxstates", "60000", "-sim", "2", "-"},
		"SPEC A WHERE PROC A = a1; b2; A [] c1; exit END ENDSPEC")
	if code != cli.ExitOK {
		t.Fatalf("exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "optimizer:") {
		t.Errorf("missing optimizer report:\n%s", out)
	}
	// The optimized entities must still pass the simulation trace checks.
	if !strings.Contains(out, "all traces valid") {
		t.Errorf("simulation of optimized entities failed:\n%s", out)
	}
}

func TestVerifyParallelFlag(t *testing.T) {
	code, out, _ := runPG(t, []string{"verify", "-parallel", "-"}, "SPEC a1; b2; c3; exit ENDSPEC")
	if code != cli.ExitOK {
		t.Fatalf("exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "verdict: OK") {
		t.Errorf("parallel verification output:\n%s", out)
	}
	// Parallel and serial exploration must report identical state counts.
	_, serialOut, _ := runPG(t, []string{"verify", "-"}, "SPEC a1; b2; c3; exit ENDSPEC")
	if out != serialOut {
		t.Errorf("parallel and serial reports differ:\n%s\nvs\n%s", out, serialOut)
	}
}

func TestVerifyStatsFlag(t *testing.T) {
	code, out, _ := runPG(t, []string{"verify", "-stats", "-"}, "SPEC a1; b2; c3; exit ENDSPEC")
	if code != cli.ExitOK {
		t.Fatalf("exit %d\n%s", code, out)
	}
	for _, want := range []string{
		"engine:", "tau-SCCs", "saturation edges", "refinement rounds", "saturate", "refine",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in -stats output:\n%s", want, out)
		}
	}
	// Without the flag the engine lines must stay silent.
	_, plain, _ := runPG(t, []string{"verify", "-"}, "SPEC a1; b2; c3; exit ENDSPEC")
	if strings.Contains(plain, "engine:") {
		t.Errorf("engine stats printed without -stats:\n%s", plain)
	}
}

func TestVerifyRejectsInvalidService(t *testing.T) {
	code, _, errw := runPG(t, []string{"verify", "-"}, "SPEC a1; exit [] b2; exit ENDSPEC")
	if code != cli.ExitFail || !strings.Contains(errw, "R1") {
		t.Errorf("code=%d err=%q", code, errw)
	}
}

func TestVerifyUsageErrors(t *testing.T) {
	if code, _, _ := runPG(t, []string{"verify"}, ""); code != cli.ExitUsage {
		t.Errorf("missing input exit %d", code)
	}
	if code, _, _ := runPG(t, []string{"verify", "-"}, "junk"); code != cli.ExitUsage {
		t.Errorf("parse error exit %d", code)
	}
}

func TestVerifyHandshakeFlag(t *testing.T) {
	code, out, _ := runPG(t,
		[]string{"verify", "-handshake", "-depth", "6", "-cap", "4", "-maxstates", "200000", "-"},
		"SPEC D [> d2; c1; exit WHERE PROC D = a1; b2; D END ENDSPEC")
	if code != cli.ExitOK {
		t.Fatalf("exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "traces equal up to 6 observable steps: true") {
		t.Errorf("handshake verification output:\n%s", out)
	}
}

// writeFiles materializes a service and its (derived) entities into a temp
// directory and returns the pg verify arguments.
func writeFiles(t *testing.T, serviceSrc string) []string {
	t.Helper()
	dir := t.TempDir()
	servicePath := filepath.Join(dir, "service.spec")
	if err := os.WriteFile(servicePath, []byte(serviceSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := core.Derive(lotos.MustParse(serviceSrc), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	args := []string{"verify", servicePath}
	for _, p := range d.Places {
		path := filepath.Join(dir, fmt.Sprintf("entity%d.spec", p))
		if err := os.WriteFile(path, []byte(d.Entity(p).String()), 0o644); err != nil {
			t.Fatal(err)
		}
		args = append(args, fmt.Sprintf("%d=%s", p, path))
	}
	return args
}

func TestConformDerivedEntitiesPass(t *testing.T) {
	args := writeFiles(t, "SPEC a1; b2; c3; exit ENDSPEC")
	code, out, errw := runPG(t, args, "")
	if code != cli.ExitOK {
		t.Fatalf("exit %d\nout: %s\nerr: %s", code, out, errw)
	}
	if !strings.Contains(out, "verdict: OK") {
		t.Errorf("output:\n%s", out)
	}
}

func TestConformDetectsWrongEntities(t *testing.T) {
	dir := t.TempDir()
	servicePath := filepath.Join(dir, "service.spec")
	os.WriteFile(servicePath, []byte("SPEC a1; b2; exit ENDSPEC"), 0o644)
	// Unsynchronized entities: b2 may run before a1.
	e1 := filepath.Join(dir, "e1.spec")
	os.WriteFile(e1, []byte("SPEC a1; exit ENDSPEC"), 0o644)
	e2 := filepath.Join(dir, "e2.spec")
	os.WriteFile(e2, []byte("SPEC b2; exit ENDSPEC"), 0o644)
	code, out, _ := runPG(t, []string{"verify", servicePath, "1=" + e1, "2=" + e2}, "")
	if code != cli.ExitFail {
		t.Fatalf("exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "only in composed") {
		t.Errorf("diagnostics missing:\n%s", out)
	}
}

func TestConformSubsetVerdict(t *testing.T) {
	dir := t.TempDir()
	servicePath := filepath.Join(dir, "service.spec")
	os.WriteFile(servicePath, []byte("SPEC a1; b2; exit [] c1; b2; exit ENDSPEC"), 0o644)
	// Entities realizing only the first alternative: a strict subset.
	e1 := filepath.Join(dir, "e1.spec")
	os.WriteFile(e1, []byte("SPEC a1; s2(1); exit ENDSPEC"), 0o644)
	e2 := filepath.Join(dir, "e2.spec")
	os.WriteFile(e2, []byte("SPEC (r1(1); exit) >> b2; exit ENDSPEC"), 0o644)
	// Full conformance fails...
	code, _, _ := runPG(t, []string{"verify", servicePath, "1=" + e1, "2=" + e2}, "")
	if code != cli.ExitFail {
		t.Fatalf("full conformance should fail, exit %d", code)
	}
	// ...subset conformance passes.
	code, out, _ := runPG(t, []string{"verify", "-subset", servicePath, "1=" + e1, "2=" + e2}, "")
	if code != cli.ExitOK || !strings.Contains(out, "subset verdict: OK") {
		t.Errorf("exit %d\n%s", code, out)
	}
}

func TestConformUsageErrors(t *testing.T) {
	if code, _, _ := runPG(t, []string{"verify"}, ""); code != cli.ExitUsage {
		t.Errorf("missing args exit %d", code)
	}
	if code, _, _ := runPG(t, []string{"verify", "/nonexistent", "1=x"}, ""); code != cli.ExitUsage {
		t.Errorf("missing service exit %d", code)
	}
	dir := t.TempDir()
	servicePath := filepath.Join(dir, "s.spec")
	os.WriteFile(servicePath, []byte("SPEC a1; exit ENDSPEC"), 0o644)
	if code, _, _ := runPG(t, []string{"verify", servicePath, "notplace"}, ""); code != cli.ExitUsage {
		t.Errorf("bad entity arg exit %d", code)
	}
	if code, _, _ := runPG(t, []string{"verify", servicePath, "1=" + servicePath, "1=" + servicePath}, ""); code != cli.ExitUsage {
		t.Errorf("duplicate place exit %d", code)
	}
}

func TestVerifyFaultsOnGivenEntities(t *testing.T) {
	args := writeFiles(t, "SPEC a1; b2; c3; exit ENDSPEC")
	args = append([]string{"verify", "-faults", "loss"}, args[1:]...)
	code, out, errw := runPG(t, args, "")
	// The reliable verdict decides the exit code; the loss row is diagnostic.
	if code != cli.ExitOK {
		t.Fatalf("exit %d\nout: %s\nerr: %s", code, out, errw)
	}
	for _, want := range []string{"verdict: OK", "fault matrix (cap=1):", "reliable", "loss", "FAIL", "replay:"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}
