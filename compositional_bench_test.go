package protoderive

import "testing"

// Benchmarks for the quotient-before-compose pipeline. Two lanes back the
// PR 8 performance record (BENCH_PR8.json, `make bench-compositional`):
//
//   - BenchmarkCompositionalVerify races monolithic verification against
//     quotient-before-compose on the finite-entity corpus shapes. Each
//     sub-benchmark reports its product size as the "product-states" metric,
//     so the record carries the per-spec state-count reduction (on the
//     two-instance multiinstance shape the monolithic product saturates the
//     20k state cap while the product over quotients completes in ~8k).
//
//   - BenchmarkDeltaVerify measures the delta-verify contract: after a
//     single-entity edit, a warm-cache compositional re-verification (what
//     POST /v1/delta-verify does) against the cold full verification of the
//     same edited spec (what a pipeline without delta-verify does). The
//     acceptance bar is a ≥3× speedup on the multiinstance-class shape.
//
// The sources mirror specs/barrier.spec and specs/multiinstance.spec; the
// edits rename one gate, which leaves every other place's derived entity
// byte-identical (messages are keyed by behaviour-tree position, not gate
// names) — the canonical single-entity edit.
const (
	benchBarrier     = "SPEC (a1; s4; exit ||| b2; s4; exit ||| c3; s4; exit) |[s4]| s4; d4; exit ENDSPEC"
	benchBarrierEdit = "SPEC (a1; s4; exit ||| b2; s4; exit ||| z3; s4; exit) |[s4]| s4; d4; exit ENDSPEC"

	benchMulti     = "SPEC B ||| B WHERE PROC B = (a1; (b2; exit ||| c3; exit)) >> g4; exit END ENDSPEC"
	benchMultiEdit = "SPEC B ||| B WHERE PROC B = (a1; (b2; exit ||| z3; exit)) >> g4; exit END ENDSPEC"
)

// benchCases pairs each shape with the options of the corpus golden runs:
// ObsDepth 4 keeps barrier conformant (no monolithic fallback clouding the
// timing) and the default 20k state cap lets the multiinstance quotient
// product complete while the monolithic product saturates.
var benchCases = []struct {
	name string
	src  string
	edit string
	opts VerifyOptions
}{
	{name: "barrier", src: benchBarrier, edit: benchBarrierEdit, opts: VerifyOptions{ObsDepth: 4}},
	{name: "multiinstance", src: benchMulti, edit: benchMultiEdit, opts: VerifyOptions{ObsDepth: 4}},
}

func benchProto(b *testing.B, src string) *Protocol {
	b.Helper()
	svc, err := ParseService(src)
	if err != nil {
		b.Fatalf("parse %q: %v", src, err)
	}
	proto, err := svc.Derive()
	if err != nil {
		b.Fatalf("derive %q: %v", src, err)
	}
	return proto
}

func BenchmarkCompositionalVerify(b *testing.B) {
	for _, c := range benchCases {
		proto := benchProto(b, c.src)
		b.Run("monolithic/"+c.name, func(b *testing.B) {
			opts := c.opts
			var rep *VerifyReport
			for i := 0; i < b.N; i++ {
				var err error
				if rep, err = proto.Verify(&opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rep.ComposedStates), "product-states")
		})
		b.Run("compositional/"+c.name, func(b *testing.B) {
			opts := c.opts
			opts.Compositional = true
			var rep *VerifyReport
			for i := 0; i < b.N; i++ {
				// A fresh cache per iteration keeps this the cold lane:
				// every entity machine is recompiled, nothing is reused.
				proto.UseArtifacts(NewArtifactCache(0))
				var err error
				if rep, err = proto.Verify(&opts); err != nil {
					b.Fatal(err)
				}
			}
			if rep.Compositional == nil {
				b.Fatal("no compositional report")
			}
			if rep.Compositional.Fallback != "" {
				b.Fatalf("compositional run fell back: %s", rep.Compositional.Fallback)
			}
			b.ReportMetric(float64(rep.Compositional.ProductStates), "product-states")
		})
	}
}

func BenchmarkDeltaVerify(b *testing.B) {
	for _, c := range benchCases {
		base := benchProto(b, c.src)
		edited := benchProto(b, c.edit)
		if d := DiffProtocols(base, edited); len(d.Changed) != 1 || len(d.Added)+len(d.Removed) != 0 {
			b.Fatalf("%s edit is not a single-entity change: %s", c.name, d.String())
		}
		b.Run("full/"+c.name, func(b *testing.B) {
			opts := c.opts
			for i := 0; i < b.N; i++ {
				if _, err := edited.Verify(&opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("delta/"+c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// Warm the cache with the base spec's artifacts outside the
				// timer — that verification already happened when the base
				// was checked — then time only the delta re-verification.
				b.StopTimer()
				opts := c.opts
				opts.Compositional = true
				cache := NewArtifactCache(0)
				base.UseArtifacts(cache)
				edited.UseArtifacts(cache)
				if _, err := base.Verify(&opts); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				rep, err := edited.Verify(&opts)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Compositional == nil || rep.Compositional.Reused == 0 {
					b.Fatal("delta verification reused no artifacts")
				}
			}
		})
	}
}
