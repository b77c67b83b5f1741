package protoderive

import "testing"

// BenchmarkCompositionalVerify races monolithic verification against
// quotient-before-compose on the finite-entity corpus shapes; `make bench`
// runs it and BENCH_PR8.json records an early run. Each sub-benchmark
// reports its product size as the "product-states" metric, so the record
// carries the per-spec state-count reduction (on the two-instance
// multiinstance shape the monolithic product saturates the 20k state cap
// while the product over quotients completes in ~8k).
//
// Each iteration derives a fresh Protocol outside the timer, so both lanes
// are cold: no entity machine, minimized layer or explored service graph
// survives from an earlier iteration. The sources mirror specs/barrier.spec
// and specs/multiinstance.spec.
const (
	benchBarrier = "SPEC (a1; s4; exit ||| b2; s4; exit ||| c3; s4; exit) |[s4]| s4; d4; exit ENDSPEC"
	benchMulti   = "SPEC B ||| B WHERE PROC B = (a1; (b2; exit ||| c3; exit)) >> g4; exit END ENDSPEC"
)

// benchCases pairs each shape with the options of the corpus golden runs:
// ObsDepth 4 keeps barrier conformant (no monolithic fallback clouding the
// timing) and the default 20k state cap lets the multiinstance quotient
// product complete while the monolithic product saturates.
var benchCases = []struct {
	name string
	src  string
	opts VerifyOptions
}{
	{name: "barrier", src: benchBarrier, opts: VerifyOptions{ObsDepth: 4}},
	{name: "multiinstance", src: benchMulti, opts: VerifyOptions{ObsDepth: 4}},
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
		b.Run("monolithic/"+c.name, func(b *testing.B) {
			opts := c.opts
			var rep *VerifyReport
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				proto := benchProto(b, c.src)
				b.StartTimer()
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
				b.StopTimer()
				proto := benchProto(b, c.src)
				b.StartTimer()
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
			if rep.Compositional.Reused != 0 {
				b.Fatalf("cold run reused %d entity machines", rep.Compositional.Reused)
			}
			b.ReportMetric(float64(rep.Compositional.ProductStates), "product-states")
		})
	}
}
