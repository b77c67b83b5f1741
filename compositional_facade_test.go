package protoderive

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/fsm"
	"repro/internal/lotos"
	"repro/internal/lts"
)

// facadeProto parses and derives one service spec, failing the test on error.
func facadeProto(t *testing.T, src string) *Protocol {
	t.Helper()
	svc, err := ParseService(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	proto, err := svc.Derive()
	if err != nil {
		t.Fatalf("derive %q: %v", src, err)
	}
	return proto
}

// reusedByPlace indexes a compositional report's per-entity reuse flags.
func reusedByPlace(t *testing.T, rep *VerifyReport) map[int]bool {
	t.Helper()
	if rep.Compositional == nil {
		t.Fatal("report carries no compositional stats")
	}
	out := map[int]bool{}
	for _, e := range rep.Compositional.Entities {
		out[e.Place] = e.Reused
	}
	return out
}

// TestArtifactSharingAcrossSpecs exercises the content addressing: two
// services that derive a byte-identical entity at one place share that
// place's cached artifact, while the differing place gets its own entry.
func TestArtifactSharingAcrossSpecs(t *testing.T) {
	protoA := facadeProto(t, "SPEC a1; b2; exit ENDSPEC")
	protoB := facadeProto(t, "SPEC a1; c2; exit ENDSPEC")
	cache := NewArtifactCache(0)
	protoA.UseArtifacts(cache)
	protoB.UseArtifacts(cache)
	opts := VerifyOptions{Compositional: true}

	repA, err := protoA.Verify(&opts)
	if err != nil {
		t.Fatal(err)
	}
	for place, reused := range reusedByPlace(t, repA) {
		if reused {
			t.Errorf("place %d reused on a cold cache", place)
		}
	}
	st := cache.Stats()
	if st.EntityMisses != 2 || st.EntityHits != 0 {
		t.Fatalf("cold verify: hits=%d misses=%d, want 0/2", st.EntityHits, st.EntityMisses)
	}

	// Renaming the gate at place 2 leaves place 1's derived entity
	// byte-identical (messages are keyed by behaviour-tree position, not
	// gate names), so only place 1's artifact is shared.
	repB, err := protoB.Verify(&opts)
	if err != nil {
		t.Fatal(err)
	}
	reused := reusedByPlace(t, repB)
	if !reused[1] {
		t.Error("place 1 entity is shared between the specs but was rebuilt")
	}
	if reused[2] {
		t.Error("place 2 entity differs between the specs but was reused")
	}
	st = cache.Stats()
	if st.EntityHits != 1 || st.EntityMisses != 3 {
		t.Errorf("after both verifies: hits=%d misses=%d, want 1/3", st.EntityHits, st.EntityMisses)
	}
	if !repA.Ok || !repB.Ok {
		t.Errorf("reliable verdicts: A ok=%v, B ok=%v, want both true", repA.Ok, repB.Ok)
	}
}

// TestArtifactSharingFormattingOnly checks that whitespace-only differences
// in the service source do not change the normalized entity behaviours, so
// every artifact is shared.
func TestArtifactSharingFormattingOnly(t *testing.T) {
	protoA := facadeProto(t, "SPEC a1; b2; exit ENDSPEC")
	protoB := facadeProto(t, "SPEC  a1 ;\n\tb2 ;   exit  ENDSPEC")
	cache := NewArtifactCache(0)
	protoA.UseArtifacts(cache)
	protoB.UseArtifacts(cache)
	opts := VerifyOptions{Compositional: true}

	if _, err := protoA.Verify(&opts); err != nil {
		t.Fatal(err)
	}
	repB, err := protoB.Verify(&opts)
	if err != nil {
		t.Fatal(err)
	}
	for place, reused := range reusedByPlace(t, repB) {
		if !reused {
			t.Errorf("place %d rebuilt for a formatting-only difference", place)
		}
	}
	if repB.Compositional.ReuseRatio() != 1 {
		t.Errorf("reuse ratio %v, want 1", repB.Compositional.ReuseRatio())
	}
}

// TestArtifactNoFalseSharing checks the converse: a gate-name difference at a
// place changes that place's content address, so its artifact is NOT shared
// even though everything else about the two specs agrees.
func TestArtifactNoFalseSharing(t *testing.T) {
	protoA := facadeProto(t, "SPEC a1; b2; exit ENDSPEC")
	protoB := facadeProto(t, "SPEC x1; b2; exit ENDSPEC")

	ka, kb := fsm.EntityKeys(protoA.d.Entities), fsm.EntityKeys(protoB.d.Entities)
	if ka[1] == kb[1] {
		t.Error("place 1 entity keys collide across a gate rename")
	}
	if ka[2] != kb[2] {
		t.Error("place 2 entity keys differ though its entity is untouched by the rename")
	}

	cache := NewArtifactCache(0)
	protoA.UseArtifacts(cache)
	protoB.UseArtifacts(cache)
	opts := VerifyOptions{Compositional: true}
	if _, err := protoA.Verify(&opts); err != nil {
		t.Fatal(err)
	}
	repB, err := protoB.Verify(&opts)
	if err != nil {
		t.Fatal(err)
	}
	reused := reusedByPlace(t, repB)
	if reused[1] {
		t.Error("place 1 artifact falsely shared across a gate rename")
	}
	if !reused[2] {
		t.Error("place 2 artifact not shared though its entity is identical")
	}
}

// TestArtifactCacheBounded checks the LRU bound: a capacity-1 cache never
// holds more than one artifact no matter how many are pushed through it.
func TestArtifactCacheBounded(t *testing.T) {
	proto := facadeProto(t, "SPEC a1; b2; exit ENDSPEC")
	cache := NewArtifactCache(1)
	proto.UseArtifacts(cache)
	opts := VerifyOptions{Compositional: true}
	for i := 0; i < 2; i++ {
		if _, err := proto.Verify(&opts); err != nil {
			t.Fatal(err)
		}
		if cache.Len() != 1 {
			t.Fatalf("cache holds %d entries, capacity is 1", cache.Len())
		}
	}
}

// TestArtifactCacheFixedAtFirstUse: a protocol fixes its artifact cache
// at its first use, so attaching a different cache later panics rather than
// splitting the protocol, whose verifier would keep recalling entities from
// the old cache while its fleets read the new one. Re-attaching the cache
// already fixed is a no-op.
func TestArtifactCacheFixedAtFirstUse(t *testing.T) {
	opts := VerifyOptions{Compositional: true}
	first, second := NewArtifactCache(0), NewArtifactCache(0)
	proto := facadeProto(t, "SPEC a1; b2; exit ENDSPEC")
	proto.UseArtifacts(first)
	if _, err := proto.Verify(&opts); err != nil {
		t.Fatal(err)
	}
	proto.UseArtifacts(first)
	mustPanic(t, "attaching a second cache after first use", func() {
		proto.UseArtifacts(second)
		rep, err := proto.Verify(&opts)
		if err != nil {
			t.Fatal(err)
		}
		if st := second.Stats(); st.EntityHits+st.EntityMisses == 0 {
			t.Errorf("split protocol: Verify reused %d of %d entities from the first cache and made no lookup in the attached one",
				rep.Compositional.Reused, len(rep.Compositional.Entities))
		}
	})

	private := facadeProto(t, "SPEC a1; b2; exit ENDSPEC")
	if _, err := private.Verify(&opts); err != nil {
		t.Fatal(err)
	}
	mustPanic(t, "attaching a cache after the private one was made", func() { private.UseArtifacts(second) })
}

// mustPanic runs f and fails the test unless it panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// TestArtifactCacheConcurrent hammers one shared cache from concurrent
// compositional verifications, compiles and compiled simulations of
// distinct-but-overlapping specs, all at one state cap so every caller
// looks up the same entries. Run under -race this checks the cache's
// locking discipline end to end.
func TestArtifactCacheConcurrent(t *testing.T) {
	sources := []string{
		"SPEC a1; b2; exit ENDSPEC",
		"SPEC a1; c2; exit ENDSPEC",
		"SPEC x1; b2; exit ENDSPEC",
		"SPEC (a1; b2; exit) >> g3; exit ENDSPEC",
	}
	const workers, maxStates = 8, 500
	cache := NewArtifactCache(0)
	distinct := map[string]bool{}
	// Every worker gets protocols of its own, so the verifiers of distinct
	// protocols reach the shared cache concurrently.
	protos := make([][]*Protocol, workers)
	for w := range protos {
		for _, src := range sources {
			proto := facadeProto(t, src)
			proto.UseArtifacts(cache)
			protos[w] = append(protos[w], proto)
			for _, key := range fsm.EntityKeys(proto.d.Entities) {
				distinct[key] = true
			}
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 3*workers*len(sources))
	for worker := 0; worker < workers; worker++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := 0; i < len(sources); i++ {
				proto := protos[worker][(worker+i)%len(sources)]
				rep, err := proto.Verify(&VerifyOptions{Compositional: true, MaxStates: maxStates})
				if err != nil {
					errs <- err
				} else if !rep.Ok || rep.Compositional == nil {
					errs <- errFacade{rep.Summary}
				}
				comp, err := proto.Compile(&CompileOptions{MaxStates: maxStates})
				if err != nil {
					errs <- err
				} else if comp.Fallback != 0 {
					errs <- fmt.Errorf("compile fell back for %d entities", comp.Fallback)
				}
				sim, err := proto.Simulate(&SimOptions{Seed: int64(worker + 1), CompileMaxStates: maxStates})
				if err != nil {
					errs <- err
				} else if !sim.Completed || !sim.TraceValid {
					errs <- fmt.Errorf("simulation: %+v", sim)
				}
			}
		}(worker)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := cache.Stats()
	if st.EntityHits == 0 {
		t.Errorf("no cache hits across concurrent verifies, compiles and simulations: %+v", st)
	}
	if st.Entries != len(distinct) {
		t.Errorf("cache holds %d entries, want one per distinct entity (%d): %+v", st.Entries, len(distinct), st)
	}
}

type errFacade struct{ summary string }

func (e errFacade) Error() string { return "unexpected verdict:\n" + e.summary }

// TestFleetSharesCachedMachines checks the compiled-fleet side of the
// cache: two protocols attached to one cache share the compiled machine of
// their common entity, and compositional verification recalls machines
// through the same attached cache.
func TestFleetSharesCachedMachines(t *testing.T) {
	protoA := facadeProto(t, "SPEC a1; b2; exit ENDSPEC")
	protoB := facadeProto(t, "SPEC a1; c2; exit ENDSPEC")
	cache := NewArtifactCache(0)
	protoA.UseArtifacts(cache)
	protoB.UseArtifacts(cache)

	repA, err := protoA.Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	repB, err := protoB.Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	if repA.Fallback != 0 || repB.Fallback != 0 {
		t.Fatalf("compile fallbacks: A=%d B=%d", repA.Fallback, repB.Fallback)
	}
	st := cache.Stats()
	if st.EntityHits != 1 || st.EntityMisses != 3 {
		t.Errorf("hits=%d misses=%d, want 1/3 (place 1 shared)", st.EntityHits, st.EntityMisses)
	}

	opts := VerifyOptions{Compositional: true}
	if _, err := protoA.Verify(&opts); err != nil {
		t.Fatal(err)
	}
	rep, err := protoA.Verify(&opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Compositional.Reused != len(rep.Compositional.Entities) {
		t.Errorf("second verify through the attached cache reused %d of %d entities",
			rep.Compositional.Reused, len(rep.Compositional.Entities))
	}
}

// servedFromCache runs f and fails the test unless every artifact lookup it
// made was a hit of the given cache.
func servedFromCache(t *testing.T, cache *ArtifactCache, what string, f func() error) {
	t.Helper()
	before := cache.Stats()
	if err := f(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	after := cache.Stats()
	if after.EntityMisses != before.EntityMisses || after.Entries != before.Entries {
		t.Errorf("%s missed the cache: before %+v, after %+v", what, before, after)
	}
	if after.EntityHits == before.EntityHits {
		t.Errorf("%s made no cache lookups: %+v", what, after)
	}
}

// TestArtifactVerifyThenCompileShareMachines: compositional verification and
// Compile store one artifact kind, keyed by entity text and state cap, so a
// Compile at the cap a compositional Verify ran with recompiles nothing.
func TestArtifactVerifyThenCompileShareMachines(t *testing.T) {
	const maxStates = 300
	cache := NewArtifactCache(0)
	proto := facadeProto(t, "SPEC a1; b2; exit [] c1; d2; exit ENDSPEC")
	proto.UseArtifacts(cache)
	if _, err := proto.Verify(&VerifyOptions{Compositional: true, MaxStates: maxStates}); err != nil {
		t.Fatal(err)
	}
	servedFromCache(t, cache, "Compile after compositional Verify", func() error {
		rep, err := proto.Compile(&CompileOptions{MaxStates: maxStates})
		if err == nil && rep.Compiled != len(proto.Places()) {
			err = fmt.Errorf("compiled %d of %d entities", rep.Compiled, len(proto.Places()))
		}
		return err
	})
}

// TestArtifactSimulateThenVerifyBuilds: Simulate recalls machines without
// minimizing them, so a compositional Verify at the same cap that finds
// those machines in the cache still builds every minimized layer — and
// reports each entity as built, not reused — while a second Verify reuses
// them all.
func TestArtifactSimulateThenVerifyBuilds(t *testing.T) {
	const maxStates = 300
	cache := NewArtifactCache(0)
	proto := facadeProto(t, "SPEC a1; b2; exit [] c1; d2; exit ENDSPEC")
	proto.UseArtifacts(cache)
	if _, err := proto.Simulate(&SimOptions{CompileMaxStates: maxStates}); err != nil {
		t.Fatal(err)
	}
	opts := VerifyOptions{Compositional: true, MaxStates: maxStates}
	var first *VerifyReport
	servedFromCache(t, cache, "Verify after Simulate", func() (err error) {
		first, err = proto.Verify(&opts)
		return err
	})
	for _, e := range first.Compositional.Entities {
		if e.Reused || e.BuildNanos <= 0 {
			t.Errorf("place %d: reused=%v buildNanos=%d after Simulate, want built", e.Place, e.Reused, e.BuildNanos)
		}
	}
	second, err := proto.Verify(&opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range second.Compositional.Entities {
		if !e.Reused || e.BuildNanos != 0 {
			t.Errorf("place %d: reused=%v buildNanos=%d on the second Verify, want reused", e.Place, e.Reused, e.BuildNanos)
		}
	}
}

// TestArtifactKeyedByEffectiveCap: artifacts are keyed by the state cap
// actually applied, so the default cap and its explicit value share
// entries — for compositional verification (0 resolves to the exploration
// default) and for compiled fleets (0 resolves to the compiler default).
func TestArtifactKeyedByEffectiveCap(t *testing.T) {
	cache := NewArtifactCache(0)
	proto := facadeProto(t, "SPEC a1; b2; exit ENDSPEC")
	proto.UseArtifacts(cache)
	if _, err := proto.Verify(&VerifyOptions{Compositional: true}); err != nil {
		t.Fatal(err)
	}
	servedFromCache(t, cache, "compositional Verify at the explicit default cap", func() error {
		_, err := proto.Verify(&VerifyOptions{Compositional: true, MaxStates: lts.DefaultMaxStates})
		return err
	})

	lossy := facadeProto(t, "SPEC a1; b2; exit ENDSPEC")
	lossy.UseArtifacts(cache)
	rep, err := lossy.Verify(&VerifyOptions{Faults: FaultModel{Loss: true}})
	if err != nil || rep.Witness == nil {
		t.Fatalf("lossy verify: err=%v witness=%v", err, rep)
	}
	if _, err := lossy.Compile(nil); err != nil {
		t.Fatal(err)
	}
	fresh := facadeProto(t, "SPEC a1; b2; exit ENDSPEC")
	fresh.UseArtifacts(cache)
	servedFromCache(t, cache, "Replay after Compile(nil)", func() error {
		res, err := fresh.Replay(rep.Witness)
		if err == nil && res.Steps != len(rep.Witness.Steps) {
			err = fmt.Errorf("replayed %d of %d witness steps", res.Steps, len(rep.Witness.Steps))
		}
		return err
	})
}

// TestPrivateCacheSharedByVerifyAndCompile: a Protocol without an attached
// cache keeps a private one that its compositional checks and its fleets
// both draw from, so a Compile at the cap a compositional Verify ran with
// builds no machine.
func TestPrivateCacheSharedByVerifyAndCompile(t *testing.T) {
	const maxStates = 300
	proto := facadeProto(t, "SPEC a1; b2; exit [] c1; d2; exit ENDSPEC")
	if _, err := proto.Verify(&VerifyOptions{Compositional: true, MaxStates: maxStates}); err != nil {
		t.Fatal(err)
	}
	servedFromCache(t, proto.machines(), "Compile after compositional Verify", func() error {
		rep, err := proto.Compile(&CompileOptions{MaxStates: maxStates})
		if err == nil && rep.Compiled != len(proto.Places()) {
			err = fmt.Errorf("compiled %d of %d entities", rep.Compiled, len(proto.Places()))
		}
		return err
	})
}

// TestOptimizeBuildsEachMachineOnce: the optimizer's candidate entity sets
// recall their machines from the Protocol's one cache, with or without an
// attached one, so a compositional Optimize builds each distinct entity's
// machine once: every place a candidate leaves unchanged is a cache hit.
func TestOptimizeBuildsEachMachineOnce(t *testing.T) {
	for _, attached := range []bool{false, true} {
		// Each candidate drops one message between two of the three places
		// and leaves the third one's entity as it was.
		proto := facadeProto(t, "SPEC a1; b2; c3; exit ENDSPEC")
		if attached {
			proto.UseArtifacts(NewArtifactCache(0))
		}
		if _, err := proto.Optimize(&VerifyOptions{Compositional: true}); err != nil {
			t.Fatal(err)
		}
		st := proto.machines().Stats()
		if st.EntityMisses != uint64(st.Entries) {
			t.Errorf("attached=%v: %d machines built for %d distinct entities", attached, st.EntityMisses, st.Entries)
		}
		if st.EntityHits == 0 {
			t.Errorf("attached=%v: no candidate reused an unchanged place's machine: %+v", attached, st)
		}
	}
}

// TestWarmReplayHashesNoEntityText: a Protocol computes its entities'
// content addresses once, so a warm Replay recalls its fleet from the
// machine cache without rendering or hashing any entity text.
func TestWarmReplayHashesNoEntityText(t *testing.T) {
	computed := 0
	defer func(f func(map[int]*lotos.Spec) map[int]string) { entityKeys = f }(entityKeys)
	entityKeys = func(entities map[int]*lotos.Spec) map[int]string {
		computed++
		return fsm.EntityKeys(entities)
	}
	proto := facadeProto(t, "SPEC a1; b2; exit ENDSPEC")
	rep, err := proto.Verify(&VerifyOptions{Faults: FaultModel{Loss: true}})
	if err != nil || rep.Witness == nil {
		t.Fatalf("lossy verify: err=%v witness=%v", err, rep)
	}
	if _, err := proto.Replay(rep.Witness); err != nil {
		t.Fatal(err)
	}
	servedFromCache(t, proto.machines(), "warm Replay", func() error {
		_, err := proto.Replay(rep.Witness)
		return err
	})
	if computed != 1 {
		t.Errorf("entity keys computed %d times over two Replays, want once", computed)
	}
}
