package core

import (
	"strings"
	"testing"

	"repro/internal/lotos"
)

// mustDerive derives with default options, failing the test on error.
func mustDerive(t testing.TB, src string) *Derivation {
	t.Helper()
	d, err := Derive(lotos.MustParse(src), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// wantEntity checks that the derived entity for a place is isomorphic
// (modulo message renumbering) to an expected specification text.
func wantEntity(t *testing.T, d *Derivation, place int, expected string) {
	t.Helper()
	got := d.Entity(place)
	if got == nil {
		t.Fatalf("no entity for place %d", place)
	}
	want := lotos.MustParse(expected)
	if !isomorphic(got, want) {
		t.Errorf("entity %d mismatch:\n--- got ---\n%s\n--- want ---\n%s", place, got, want)
	}
}

// --- E3: Example 4 of the paper (Section 3.1, sequences) -------------------

func TestE3_Example4Sequence(t *testing.T) {
	// Service: a1; exit >> b2; exit.
	d := mustDerive(t, "SPEC a1; exit >> b2; exit ENDSPEC")
	if len(d.Places) != 2 {
		t.Fatalf("places %v", d.Places)
	}
	// Place 1: "a1 ; (s2(x) ; exit) >> (empty)" in the paper's informal
	// rendering; the Table-3-faithful tree is T_1(a1;exit) >> Synch_Left.
	wantEntity(t, d, 1, "SPEC a1; exit >> s2(1); exit ENDSPEC")
	// Place 2: "(empty) >> (r1(x) ; exit) >> b2 ; exit".
	wantEntity(t, d, 2, "SPEC (r1(1); exit) >> b2; exit ENDSPEC")
}

// --- E4: Example 5 of the paper (Section 3.2, choice) ----------------------

func TestE4_Example5Choice(t *testing.T) {
	src := `
SPEC A WHERE
  PROC A = (a1; b2; A >> c2; d3; exit) [] (e1; f3; exit) END
ENDSPEC`
	d := mustDerive(t, src)
	if len(d.Places) != 3 {
		t.Fatalf("places %v", d.Places)
	}

	// Place 1 chooses; choosing e1 sends the Alternative message to place 2
	// (the only place of the left alternative absent from the right one).
	p1 := d.Entity(1)
	text1 := p1.String()
	if !strings.Contains(text1, "e1; s3(") {
		t.Errorf("place 1 must send a sequence message to place 3 after e1:\n%s", text1)
	}
	// The Alternative message to place 2 appears in the right alternative.
	body1 := p1.Root.Procs[0].Body.Expr.(*lotos.Choice)
	rightText := lotos.Format(body1.R)
	if !strings.Contains(rightText, "s2(") {
		t.Errorf("place 1 right alternative must inform place 2: %s", rightText)
	}

	// Place 2's right alternative is exactly the Alternative receive.
	p2 := d.Entity(2)
	body2 := p2.Root.Procs[0].Body.Expr.(*lotos.Choice)
	if got := lotos.Format(body2.R); !strings.HasPrefix(got, "r1(") {
		t.Errorf("place 2 right alternative = %q, want a receive from place 1", got)
	}

	// Place 3 has no Alternative messages (it participates in both
	// alternatives), but it does carry the ">>"-unwind signal to place 2:
	// EP(a1;b2;A) = {3}, so place 3 hands control to c2 after each
	// instance of A completes.
	p3 := d.Entity(3)
	body3 := p3.Root.Procs[0].Body.Expr.(*lotos.Choice)
	if got := lotos.Format(body3.R); !strings.HasPrefix(got, "r1(") {
		t.Errorf("place 3 right alternative = %q, want sequence receive from place 1", got)
	}
	alts := 0
	lotos.WalkSpec(p3, func(e lotos.Expr) {
		if pfx, ok := e.(*lotos.Prefix); ok && pfx.Ev.Kind == lotos.EvSend && pfx.Ev.Place == 2 {
			alts++
		}
	})
	if alts != 1 {
		t.Errorf("place 3 sends %d messages to place 2, want exactly the unwind signal", alts)
	}
}

// --- E5: Example 6 of the paper (Section 3.3, disabling) -------------------

func TestE5_Example6Disable(t *testing.T) {
	src := `SPEC a1; b2; c3; exit [> d3; e3; exit ENDSPEC`
	d := mustDerive(t, src)

	// Place 1: a1; ... >> (r3(x);exit) [> (r3(y);exit) ...
	p1 := lotos.Format(d.Entity(1).Root.Expr)
	if !strings.Contains(p1, "[>") || !strings.Contains(p1, "r3(") {
		t.Errorf("place 1: %s", p1)
	}
	dis1 := d.Entity(1).Root.Expr.(*lotos.Disable)
	if got := lotos.Format(dis1.R); !strings.HasPrefix(got, "r3(") {
		t.Errorf("place 1 disabling part = %q, want interrupt receive", got)
	}

	// Place 3 hosts the interrupt: d3; broadcast, plus the Rel broadcast on
	// normal termination (EP = {3}).
	p3 := d.Entity(3)
	dis3 := p3.Root.Expr.(*lotos.Disable)
	rhs := lotos.Format(dis3.R)
	if !strings.HasPrefix(rhs, "d3; ") || !strings.Contains(rhs, "s1(") || !strings.Contains(rhs, "s2(") {
		t.Errorf("place 3 disabling part = %q, want d3 followed by broadcast", rhs)
	}
	lhs := lotos.Format(dis3.L)
	if !strings.Contains(lhs, "c3; exit") || !strings.Contains(lhs, "s1(") || !strings.Contains(lhs, "s2(") {
		t.Errorf("place 3 normal part = %q, want c3 then Rel broadcast", lhs)
	}
}

func TestE5_Example6FullStructure(t *testing.T) {
	// The exact expected entities for Example 6 with continuation exit,
	// matching the Section 3.3 discussion (message ids renumbered).
	d := mustDerive(t, "SPEC a1; b2; c3; exit [> d3; exit ENDSPEC")
	wantEntity(t, d, 1, `
SPEC (a1; s2(12); exit >> r3(15); exit) [> r3(40); exit ENDSPEC`)
	wantEntity(t, d, 2, `
SPEC ((r1(12); exit >> b2; s3(18); exit) >> r3(15); exit) [> r3(40); exit ENDSPEC`)
	wantEntity(t, d, 3, `
SPEC ((r2(18); exit >> c3; exit) >> s1(15); exit ||| s2(15); exit)
     [> d3; (s1(40); exit ||| s2(40); exit) ENDSPEC`)
}

// --- E2: Example 3 of the paper (Section 4.2, full derivation) --------------

const example3Source = `
SPEC S [> interrupt3; exit WHERE
  PROC S = (read1; push2; S >> pop2; write3; exit)
        [] (eof1; make3; exit)
  END
ENDSPEC`

func TestE2_Example3Derivation(t *testing.T) {
	d := mustDerive(t, example3Source)
	if len(d.Places) != 3 {
		t.Fatalf("places %v", d.Places)
	}

	// The expected entities below are the Section 4.2 listings with the
	// paper's two typos corrected ("read1" -> "eof1" in place 1's right
	// alternative; "write3" -> "make3" in place 3's right alternative) and
	// message identifications renumbered to our preorder node numbers (the
	// isomorphism check requires only a consistent bijection).
	wantEntity(t, d, 1, `
SPEC ((s2(17); exit ||| s3(17); exit >> S) >> r3(15); exit) [> r3(22); exit
WHERE
  PROC S =
    read1; (s2(48); exit >> r2(54); exit >> s2(65); exit ||| s3(65); exit >> S)
    [] (eof1; s3(84); exit >> s2(86); exit)
  END
ENDSPEC`)

	wantEntity(t, d, 2, `
SPEC ((r1(17); exit >> S) >> r3(15); exit) [> r3(22); exit
WHERE
  PROC S =
    ((r1(48); exit >> push2; (s1(54); exit >> r1(65); exit >> S))
       >> r3(49); exit >> pop2; s3(66); exit)
    [] r1(86); exit
  END
ENDSPEC`)

	wantEntity(t, d, 3, `
SPEC ((r1(17); exit >> S) >> s1(15); exit ||| s2(15); exit)
     [> interrupt3; (s1(22); exit ||| s2(22); exit)
WHERE
  PROC S =
    ((r1(65); exit >> S) >> s2(49); exit >> r2(66); exit >> write3; exit)
    [] (r1(84); exit >> make3; exit)
  END
ENDSPEC`)
}

func TestE2_Example3StructurePreserved(t *testing.T) {
	// The derivation preserves the service structure in every entity:
	// same process names, a disable at the root, a choice in the body.
	d := mustDerive(t, example3Source)
	for _, p := range d.Places {
		e := d.Entity(p)
		if len(e.Root.Procs) != 1 || e.Root.Procs[0].Name != "S" {
			t.Errorf("place %d: processes %v", p, e.Root.Procs)
		}
		if _, ok := e.Root.Expr.(*lotos.Disable); !ok {
			t.Errorf("place %d: root is %T, want disable", p, e.Root.Expr)
		}
		if _, ok := e.Root.Procs[0].Body.Expr.(*lotos.Choice); !ok {
			t.Errorf("place %d: body is %T, want choice", p, e.Root.Procs[0].Body.Expr)
		}
	}
}

func TestDerivedEntitiesReparse(t *testing.T) {
	// Rendered entities are valid specifications in the same language.
	d := mustDerive(t, example3Source)
	for _, p := range d.Places {
		text := d.Entity(p).String()
		back, err := lotos.Parse(text)
		if err != nil {
			t.Errorf("place %d: rendered entity does not re-parse: %v\n%s", p, err, text)
			continue
		}
		if !lotos.EqualSpec(d.Entity(p), back) {
			t.Errorf("place %d: re-parse changed structure", p)
		}
	}
}

// --- E6: Example 2 (Section 3.4, recursion) ---------------------------------

func TestE6_Example2Recursion(t *testing.T) {
	src := `SPEC A WHERE PROC A = (a1; A >> b2; exit) [] (a1; b2; exit) END ENDSPEC`
	d := mustDerive(t, src)
	if len(d.Places) != 2 {
		t.Fatalf("places %v", d.Places)
	}

	// Section 3.4's expected shape: place 1 sends after a1 before invoking
	// A; place 2 receives before invoking A.
	p1 := d.Entity(1)
	t1 := p1.String()
	if !strings.Contains(t1, "a1; ") || !strings.Contains(t1, "s2(") {
		t.Errorf("place 1:\n%s", t1)
	}
	p2 := d.Entity(2)
	body2 := p2.Root.Procs[0].Body.Expr.(*lotos.Choice)
	leftText := lotos.Format(body2.L)
	if !strings.Contains(leftText, "r1(") || !strings.Contains(leftText, ">> S") &&
		!strings.Contains(leftText, ">> A") {
		t.Errorf("place 2 left alternative: %s", leftText)
	}
}

// --- E7: Example 7 (Section 3.5, multiple instances) ------------------------

func TestE7_Example7MultipleInstances(t *testing.T) {
	src := `SPEC B ||| B WHERE PROC B = (a1; (b2; exit ||| c3; exit)) >> g4; exit END ENDSPEC`
	d := mustDerive(t, src)
	if len(d.Places) != 4 {
		t.Fatalf("places %v", d.Places)
	}
	// Place 4 waits for messages from places 2 and 3 (the ending places of
	// the left part of ">>") inside each instance of B.
	p4 := d.Entity(4)
	body := p4.Root.Procs[0].Body.Expr
	text := lotos.Format(body)
	if !strings.Contains(text, "r2(") || !strings.Contains(text, "r3(") {
		t.Errorf("place 4 body must receive from 2 and 3: %s", text)
	}
	if !strings.Contains(text, "g4") {
		t.Errorf("place 4 body must keep g4: %s", text)
	}
	// The root has two B instances at distinct call sites: the derivation
	// keeps both, and their occurrence disambiguation comes from distinct
	// call-site node numbers at unfold time.
	refs := 0
	lotos.Walk(p4.Root.Expr, func(e lotos.Expr) {
		if _, ok := e.(*lotos.ProcRef); ok {
			refs++
		}
	})
	if refs != 2 {
		t.Errorf("place 4 root has %d process references, want 2", refs)
	}
}

// --- Structure preservation and smaller properties --------------------------

func TestRule17NoMessagesForFinalAction(t *testing.T) {
	// "a1; exit" alone generates no synchronization at all.
	d := mustDerive(t, "SPEC a1; exit ENDSPEC")
	if d.SendCount() != 0 || d.ReceiveCount() != 0 {
		t.Errorf("sends=%d receives=%d, want 0", d.SendCount(), d.ReceiveCount())
	}
	wantEntity(t, d, 1, "SPEC a1; exit ENDSPEC")
}

func TestSequenceChainMessages(t *testing.T) {
	// a1; b2; c3; exit: one message per place change (rule 16), none for
	// the final action (rule 17).
	d := mustDerive(t, "SPEC a1; b2; c3; exit ENDSPEC")
	if got := d.SendCount(); got != 2 {
		t.Errorf("sends = %d, want 2", got)
	}
	wantEntity(t, d, 1, "SPEC a1; s2(6); exit ENDSPEC")
	wantEntity(t, d, 2, "SPEC (r1(6); exit) >> b2; s3(12); exit ENDSPEC")
	wantEntity(t, d, 3, "SPEC (r2(12); exit) >> c3; exit ENDSPEC")
}

func TestSameplaceSequenceNoMessages(t *testing.T) {
	// Successive actions at the same place need no synchronization.
	d := mustDerive(t, "SPEC a1; b1; c1; exit ENDSPEC")
	if got := d.SendCount(); got != 0 {
		t.Errorf("sends = %d, want 0", got)
	}
	wantEntity(t, d, 1, "SPEC a1; b1; c1; exit ENDSPEC")
}

func TestParallelNoMessages(t *testing.T) {
	// "|||" requires no synchronization messages (Section 3).
	d := mustDerive(t, "SPEC a1; exit ||| b2; exit ENDSPEC")
	if got := d.SendCount(); got != 0 {
		t.Errorf("sends = %d, want 0", got)
	}
	wantEntity(t, d, 1, "SPEC a1; exit ENDSPEC")
	wantEntity(t, d, 2, "SPEC b2; exit ENDSPEC")
}

func TestSynchronizedParallelProjectsGates(t *testing.T) {
	src := "SPEC a1; b2; exit |[a1,b2]| a1; b2; exit ENDSPEC"
	d := mustDerive(t, src)
	p1 := d.Entity(1).Root.Expr.(*lotos.Parallel)
	if p1.Kind != lotos.ParGates || len(p1.Sync) != 1 || p1.Sync[0] != "a1" {
		t.Errorf("place 1 sync set = %v", p1.Sync)
	}
	p2 := d.Entity(2).Root.Expr.(*lotos.Parallel)
	if p2.Kind != lotos.ParGates || len(p2.Sync) != 1 || p2.Sync[0] != "b2" {
		t.Errorf("place 2 sync set = %v", p2.Sync)
	}
}

func TestFullParallelProjectsAllLocalGates(t *testing.T) {
	d := mustDerive(t, "SPEC a1; b2; exit || a1; b2; exit ENDSPEC")
	p1 := d.Entity(1).Root.Expr.(*lotos.Parallel)
	if p1.Kind != lotos.ParGates || len(p1.Sync) != 1 || p1.Sync[0] != "a1" {
		t.Errorf("place 1 sync = %+v", p1)
	}
}

func TestParallelGateProjectionDegradesToInterleave(t *testing.T) {
	// A place not mentioned in the gate set gets "|||" (law P5).
	d := mustDerive(t, "SPEC a1; c3; exit |[a1]| a1; d3; exit ENDSPEC")
	p3 := d.Entity(3).Root.Expr.(*lotos.Parallel)
	if p3.Kind != lotos.ParInterleave {
		t.Errorf("place 3 parallel kind = %v, want interleave", p3.Kind)
	}
}

func TestDerivationDoesNotModifyInput(t *testing.T) {
	sp := lotos.MustParse(example3Source)
	before := sp.String()
	if _, err := Derive(sp, Options{}); err != nil {
		t.Fatal(err)
	}
	if sp.String() != before {
		t.Error("Derive modified its input specification")
	}
}

func TestDeriveRejectsInvalidService(t *testing.T) {
	bad := []string{
		"SPEC a1; exit [] b2; exit ENDSPEC",         // R1
		"SPEC a1; b2; exit [] a1; c3; exit ENDSPEC", // R2
		"SPEC i; a1; exit ENDSPEC",                  // internal action
		"SPEC s2(7); exit ENDSPEC",                  // message event
	}
	for _, src := range bad {
		if _, err := Derive(lotos.MustParse(src), Options{}); err == nil {
			t.Errorf("Derive(%q): expected error", src)
		}
	}
}

func TestSkipRestrictionsDerivesAnyway(t *testing.T) {
	d, err := Derive(lotos.MustParse("SPEC a1; exit [] b2; exit ENDSPEC"), Options{SkipRestrictions: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Places) != 2 {
		t.Errorf("places %v", d.Places)
	}
}

func TestKeepRedundantRetainsEmpties(t *testing.T) {
	raw, err := Derive(lotos.MustParse("SPEC a1; exit >> b2; exit ENDSPEC"), Options{KeepRedundant: true})
	if err != nil {
		t.Fatal(err)
	}
	simp := mustDerive(t, "SPEC a1; exit >> b2; exit ENDSPEC")
	// The raw place-2 text contains the unsimplified ">> exit" skeleton.
	rawText := lotos.Format(raw.Entity(2).Root.Expr)
	simpText := lotos.Format(simp.Entity(2).Root.Expr)
	if len(rawText) <= len(simpText) {
		t.Errorf("raw %q should be longer than simplified %q", rawText, simpText)
	}
}

func TestDialect1986(t *testing.T) {
	// Accepted: ';', '[]', '|||' only.
	ok := "SPEC a1; b2; exit [] a1; c2; exit ||| d3; exit ENDSPEC"
	if _, err := Derive(lotos.MustParse(ok), Options{Dialect1986: true, SkipRestrictions: true}); err != nil {
		t.Errorf("1986 subset rejected valid input: %v", err)
	}
	rejected := []string{
		"SPEC a1; exit >> b2; exit ENDSPEC",
		"SPEC a1; exit [> b2; exit ENDSPEC",
		"SPEC a1; exit || a1; exit ENDSPEC",
		"SPEC a1; exit |[a1]| a1; exit ENDSPEC",
		"SPEC A WHERE PROC A = a1; exit END ENDSPEC",
	}
	for _, src := range rejected {
		if _, err := Derive(lotos.MustParse(src), Options{Dialect1986: true}); err == nil {
			t.Errorf("1986 subset accepted %q", src)
		}
	}
}

func TestRenderContainsAllPlaces(t *testing.T) {
	d := mustDerive(t, example3Source)
	text := d.Render()
	for _, want := range []string{"place 1", "place 2", "place 3"} {
		if !strings.Contains(text, want) {
			t.Errorf("render missing %q", want)
		}
	}
}
