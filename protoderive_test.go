package protoderive

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
)

const fileCopySrc = `
SPEC S [> interrupt3; exit WHERE
  PROC S = (read1; push2; S >> pop2; write3; exit)
        [] (eof1; make3; exit)
  END
ENDSPEC`

func TestParseServiceValidates(t *testing.T) {
	svc, err := ParseService(fileCopySrc)
	if err != nil {
		t.Fatal(err)
	}
	if got := svc.Places(); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("places %v", got)
	}
	prims := strings.Join(svc.Primitives(), " ")
	for _, want := range []string{"read1", "push2", "write3", "interrupt3"} {
		if !strings.Contains(prims, want) {
			t.Errorf("primitives missing %s: %s", want, prims)
		}
	}
	if !strings.Contains(svc.AttributeTable(), "ALL={1,2,3}") {
		t.Error("attribute table missing ALL")
	}
	if !strings.Contains(svc.String(), "PROC S") {
		t.Error("rendering lost the process")
	}
}

func TestParseServiceRejects(t *testing.T) {
	cases := []string{
		"not a spec",
		"SPEC a1; exit [] b2; exit ENDSPEC", // R1
		"SPEC i; a1; exit ENDSPEC",          // internal action
	}
	for _, src := range cases {
		if _, err := ParseService(src); err == nil {
			t.Errorf("ParseService(%q): expected error", src)
		}
	}
}

func TestMustParseServicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MustParseService("bogus")
}

func TestServiceTraces(t *testing.T) {
	svc := MustParseService("SPEC a1; b2; exit ENDSPEC")
	trs, err := svc.Traces(5)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(trs, ";")
	if !strings.Contains(joined, "a1 b2 delta") {
		t.Errorf("traces %v", trs)
	}
}

func TestDeriveVerifySimulateWorkflow(t *testing.T) {
	svc := MustParseService("SPEC a1; b2; d3; exit [] a1; c2; d3; exit ENDSPEC")
	proto, err := svc.Derive()
	if err != nil {
		t.Fatal(err)
	}
	if len(proto.Places()) != 3 {
		t.Fatalf("places %v", proto.Places())
	}
	if proto.EntityText(2) == "" || proto.EntityText(9) != "" {
		t.Error("EntityText wrong")
	}
	if !strings.Contains(proto.Render(), "place 3") {
		t.Error("render missing place 3")
	}

	rep, err := proto.Verify(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok || !rep.Complete || !rep.WeakBisimilar {
		t.Errorf("verify: %s", rep.Summary)
	}

	res, err := proto.Simulate(&SimOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || !res.TraceValid {
		t.Errorf("simulate: %+v", res)
	}
}

func TestComplexityFacade(t *testing.T) {
	svc := MustParseService(fileCopySrc)
	proto, err := svc.Derive()
	if err != nil {
		t.Fatal(err)
	}
	c := proto.Complexity()
	if c.Total() != proto.MessageCount() {
		t.Errorf("complexity total %d != message count %d", c.Total(), proto.MessageCount())
	}
	if c.Places != 3 || c.Total() != 14 {
		t.Errorf("complexity %+v", c)
	}
	if !strings.Contains(proto.ComplexityTable(), "total") {
		t.Error("table malformed")
	}
}

func TestScriptedSimulation(t *testing.T) {
	svc := MustParseService(fileCopySrc)
	proto, err := svc.Derive()
	if err != nil {
		t.Fatal(err)
	}
	res, err := proto.Simulate(&SimOptions{
		Seed:   9,
		Script: []string{"read1", "push2", "eof1", "make3", "pop2", "write3"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TraceValid {
		t.Errorf("trace invalid: %v", res.Trace)
	}
	if len(res.Trace) == 0 || res.Trace[0] != "read1" {
		t.Errorf("trace %v", res.Trace)
	}
}

func TestLossySimulation(t *testing.T) {
	svc := MustParseService("SPEC a1; b2; exit ENDSPEC")
	proto, err := svc.Derive()
	if err != nil {
		t.Fatal(err)
	}
	res, err := proto.Simulate(&SimOptions{Seed: 4, LossRate: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed || res.MessagesDropped == 0 {
		t.Errorf("lossy run: %+v", res)
	}
}

func TestDialect1986Facade(t *testing.T) {
	svc := MustParseService("SPEC a1; exit >> b2; exit ENDSPEC")
	if _, err := svc.DeriveWithOptions(DeriveOptions{Dialect1986: true}); err == nil {
		t.Error("1986 dialect must reject '>>'")
	}
	if _, err := svc.Derive(); err != nil {
		t.Errorf("full dialect: %v", err)
	}
}

func TestCentralizedFacade(t *testing.T) {
	svc := MustParseService("SPEC a1; b2; c3; exit ENDSPEC")
	cen, err := svc.DeriveCentralized(0)
	if err != nil {
		t.Fatal(err)
	}
	if cen.Server() != 1 {
		t.Errorf("server %d", cen.Server())
	}
	if cen.MessageCount() != 6 {
		t.Errorf("messages %d", cen.MessageCount())
	}
	if !strings.Contains(cen.EntityText(2), "Loop") {
		t.Error("client loop missing")
	}
	proto, _ := svc.Derive()
	if proto.MessageCount() >= cen.MessageCount() {
		t.Error("distributed should beat centralized here")
	}
}

func TestKeepRedundantFacade(t *testing.T) {
	svc := MustParseService("SPEC a1; exit >> b2; exit ENDSPEC")
	raw, err := svc.DeriveWithOptions(DeriveOptions{KeepRedundant: true})
	if err != nil {
		t.Fatal(err)
	}
	simp, _ := svc.Derive()
	if len(raw.EntityText(2)) <= len(simp.EntityText(2)) {
		t.Error("raw output should be longer")
	}
}

func TestReliableLayerFacade(t *testing.T) {
	svc := MustParseService("SPEC a1; b2; exit ENDSPEC")
	proto, err := svc.Derive()
	if err != nil {
		t.Fatal(err)
	}
	res, err := proto.Simulate(&SimOptions{Seed: 4, LossRate: 0.5, ReliableLayer: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || !res.TraceValid {
		t.Errorf("ARQ run failed: %+v", res)
	}
	if res.MessagesDropped != 0 {
		t.Errorf("ARQ layer reported drops: %d", res.MessagesDropped)
	}
}

// TestSimulateReproducible checks that a simulation is a function of its
// options: for every seed and medium configuration — plain, lossy,
// delaying, and the ARQ layer over a lossy wire — two runs, and runs under
// GOMAXPROCS 1 and 4, give deep-equal results.
func TestSimulateReproducible(t *testing.T) {
	svc := MustParseService("SPEC (a1; b2; c3; exit ||| d2; e1; f3; exit ||| g3; h1; exit) >> z2; exit ENDSPEC")
	proto, err := svc.Derive()
	if err != nil {
		t.Fatal(err)
	}
	configs := map[string]SimOptions{
		"plain":    {},
		"loss":     {LossRate: 0.3},
		"delay":    {MaxDelay: 3},
		"arq+loss": {ReliableLayer: true, LossRate: 0.5},
	}
	type run struct {
		config string
		seed   int64
	}
	runAll := func() map[run]*SimResult {
		out := map[run]*SimResult{}
		for name, opts := range configs {
			for seed := int64(1); seed <= 20; seed++ {
				o := opts
				o.Seed = seed
				res, err := proto.Simulate(&o)
				if err != nil {
					t.Fatalf("%s seed %d: %v", name, seed, err)
				}
				if !res.TraceValid {
					t.Errorf("%s seed %d: invalid trace %v", name, seed, res.Trace)
				}
				out[run{name, seed}] = res
			}
		}
		return out
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	first := runAll()
	again := runAll()
	runtime.GOMAXPROCS(4)
	wide := runAll()
	for r, want := range first {
		if !reflect.DeepEqual(again[r], want) {
			t.Errorf("%s seed %d: second run %+v, first %+v", r.config, r.seed, again[r], want)
		}
		if !reflect.DeepEqual(wide[r], want) {
			t.Errorf("%s seed %d: GOMAXPROCS 4 run %+v, GOMAXPROCS 1 %+v", r.config, r.seed, wide[r], want)
		}
	}
}

func TestHandshakeFacade(t *testing.T) {
	svc := MustParseService(`
SPEC D [> d2; c1; exit WHERE
  PROC D = a1; b2; D END
ENDSPEC`)
	hs, err := svc.DeriveWithOptions(DeriveOptions{InterruptHandshake: true})
	if err != nil {
		t.Fatal(err)
	}
	bc, err := svc.Derive()
	if err != nil {
		t.Fatal(err)
	}
	if hs.Complexity().DisableInterr <= bc.Complexity().DisableInterr {
		t.Errorf("handshake interrupt cost %d should exceed broadcast %d",
			hs.Complexity().DisableInterr, bc.Complexity().DisableInterr)
	}
	rep, err := hs.Verify(&VerifyOptions{ObsDepth: 6, MaxStates: 200000, ChannelCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.TracesEqual || rep.Deadlocks != 0 {
		t.Errorf("handshake verification: %s", rep.Summary)
	}
	// Runtime: the handshake protocol runs and its traces stay valid.
	res, err := hs.Simulate(&SimOptions{Seed: 8, MaxEvents: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TraceValid {
		t.Errorf("handshake run trace invalid: %v", res.Trace)
	}
}

func TestOptimizeFacade(t *testing.T) {
	svc := MustParseService(`SPEC A WHERE PROC A = a1; b2; A [] c1; exit END ENDSPEC`)
	proto, err := svc.Derive()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := proto.Optimize(&VerifyOptions{ObsDepth: 6, MaxStates: 60000})
	if err != nil {
		t.Fatal(err)
	}
	if rep.After >= rep.Before || len(rep.Removed) == 0 {
		t.Errorf("no optimization: %+v", rep)
	}
	if rep.Protocol.MessageCount() != rep.After {
		t.Errorf("optimized protocol message count %d != %d",
			rep.Protocol.MessageCount(), rep.After)
	}
	// The optimized protocol still verifies and runs.
	v, err := rep.Protocol.Verify(&VerifyOptions{ObsDepth: 6, MaxStates: 60000})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Ok {
		t.Errorf("optimized protocol fails verification: %s", v.Summary)
	}
	res, err := rep.Protocol.Simulate(&SimOptions{Seed: 6, MaxEvents: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TraceValid {
		t.Errorf("optimized run trace invalid: %v", res.Trace)
	}
}

// TestOptimizeForwardsOptions: Optimize verifies with the caller's full
// options, so an invalid reduction set is reported, not ignored.
func TestOptimizeForwardsOptions(t *testing.T) {
	proto, err := MustParseService("SPEC a1; b2; exit ENDSPEC").Derive()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proto.Optimize(&VerifyOptions{Reductions: "bogus"}); err == nil {
		t.Error("Optimize accepted an unknown reduction set")
	}
}
