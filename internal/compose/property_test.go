package compose

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/lotos"
	"repro/internal/lts"
)

// genService generates a random [>-free service specification that
// satisfies the paper's restrictions BY CONSTRUCTION: choices are generated
// with a fixed (startPlace, endPlaces) signature for both alternatives, so
// R1 and R2 hold without rejection sampling. The generator exercises ";",
// "[]", "|||" and ">>" over up to 4 places.
type genService struct {
	rng    *rand.Rand
	places int
	names  int
}

func (g *genService) place() int { return g.rng.Intn(g.places) + 1 }

func (g *genService) event(place int) string {
	g.names++
	return fmt.Sprintf("%s%d", string(rune('a'+g.names%20)), place)
}

// expr generates an expression that starts at startPlace and ends with its
// last action at endPlace (so SP = {startPlace}, EP = {endPlace}).
func (g *genService) expr(startPlace, endPlace, depth int) string {
	if depth <= 0 {
		return g.seq(startPlace, endPlace)
	}
	switch g.rng.Intn(4) {
	case 0: // plain sequence
		return g.seq(startPlace, endPlace)
	case 1: // choice: same start and end places in both alternatives (R1/R2)
		l := g.expr(startPlace, endPlace, depth-1)
		r := g.expr(startPlace, endPlace, depth-1)
		return "(" + l + " [] " + r + ")"
	case 2: // enabling: left part ends anywhere, right continues to endPlace
		mid := g.place()
		l := g.expr(startPlace, mid, depth-1)
		r := g.expr(g.place(), endPlace, depth-1)
		return "(" + l + " >> " + r + ")"
	default: // sequence with an interleaved middle, then rejoin
		mid1, mid2 := g.place(), g.place()
		l := g.seq(startPlace, mid1)
		m := "(" + g.seq(g.place(), mid2) + " ||| " + g.seq(g.place(), g.place()) + ")"
		r := g.seq(g.place(), endPlace)
		return "(" + l + " >> " + m + " >> " + r + ")"
	}
}

// seq generates "ev(start); [ev(mid);...] ev(end); exit".
func (g *genService) seq(startPlace, endPlace int) string {
	var b strings.Builder
	b.WriteString(g.event(startPlace))
	b.WriteString("; ")
	middles := g.rng.Intn(3)
	for i := middles; i > 0; i-- {
		b.WriteString(g.event(g.place()))
		b.WriteString("; ")
	}
	// The final event fixes EP = {endPlace}; it may only be omitted when
	// the start event already is the last action at endPlace.
	if startPlace != endPlace || middles > 0 || g.rng.Intn(2) == 0 {
		b.WriteString(g.event(endPlace))
		b.WriteString("; ")
	}
	b.WriteString("exit")
	return b.String()
}

func (g *genService) spec(depth int) string {
	return "SPEC " + g.expr(g.place(), g.place(), depth) + " ENDSPEC"
}

// TestPropertyRandomServicesDeriveAndVerify is the randomized end-to-end
// property: for every generated valid service, (1) the derivation succeeds,
// (2) the Section-4.3 accounting equals the derived send count, (3) the
// composed protocol is trace-equivalent to the service (exactly, via weak
// bisimulation, whenever exploration closes) and deadlock-free.
func TestPropertyRandomServicesDeriveAndVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short mode")
	}
	checked := 0
	for seed := int64(1); checked < 60 && seed < 800; seed++ {
		g := &genService{rng: rand.New(rand.NewSource(seed)), places: 4}
		src := g.spec(1 + int(seed%3))
		sp, err := lotos.Parse(src)
		if err != nil {
			t.Fatalf("seed %d: generator produced unparsable spec: %v\n%s", seed, err, src)
		}
		// The generator guarantees R1/R2 by construction; double-check and
		// fail loudly if the guarantee breaks.
		if _, err := attr.Validate(lotos.CloneSpec(sp)); err != nil {
			t.Fatalf("seed %d: generated spec violates restrictions: %v\n%s", seed, err, src)
		}
		d, err := core.Derive(sp, core.Options{})
		if err != nil {
			t.Fatalf("seed %d: derive: %v\n%s", seed, err, src)
		}
		if got, want := core.MessageComplexity(d.Service).Total(), d.SendCount(); got != want {
			t.Errorf("seed %d: complexity %d != sends %d\n%s", seed, got, want, src)
		}
		rep, err := Verify(d.Service.Spec, d.Entities, VerifyOptions{ObsDepth: 5, MaxStates: 150000})
		if err != nil {
			t.Fatalf("seed %d: verify: %v\n%s", seed, err, src)
		}
		if !rep.Ok() {
			t.Errorf("seed %d: verification failed:\n%s\n%s", seed, src, rep.Summary())
		}
		if rep.Complete && !rep.WeakBisimilar {
			t.Errorf("seed %d: complete but not bisimilar:\n%s", seed, src)
		}
		checked++
	}
	if checked < 60 {
		t.Fatalf("only %d specs checked", checked)
	}
}

// TestPropertyReductionSoundness cross-checks the partial-order reduction:
// the reduced and the full exploration must have identical weak trace sets.
func TestPropertyReductionSoundness(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short mode")
	}
	checked := 0
	for seed := int64(1); checked < 20 && seed < 200; seed++ {
		g := &genService{rng: rand.New(rand.NewSource(seed + 1000)), places: 3}
		src := g.spec(1)
		sp, err := lotos.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		d, err := core.Derive(sp, core.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		limits := lts.Limits{MaxObsDepth: 4, MaxStates: 300000}
		sysR, err := New(d.Entities, Config{Limits: limits})
		if err != nil {
			t.Fatal(err)
		}
		gr, err := sysR.Explore()
		if err != nil {
			t.Fatal(err)
		}
		sysF, err := New(d.Entities, Config{Reductions: RedNone, Limits: limits})
		if err != nil {
			t.Fatal(err)
		}
		gf, err := sysF.Explore()
		if err != nil {
			t.Fatal(err)
		}
		if gr.NumStates() > gf.NumStates() {
			t.Errorf("seed %d: reduction enlarged the state space", seed)
		}
		trR := strings.Join(lts.WeakTraces(gr, 4), ";")
		trF := strings.Join(lts.WeakTraces(gf, 4), ";")
		if trR != trF {
			t.Errorf("seed %d: reduction changed the trace set\n%s\nreduced: %s\nfull:    %s",
				seed, src, trR, trF)
		}
		checked++
	}
}
