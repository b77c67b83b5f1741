// Lossy demonstrates the error-recovery extension the paper sketches in
// Section 6: the derivation algorithm assumes a reliable medium, so the
// derived protocols stall on a lossy one — and complete again once a
// stop-and-wait ARQ layer (the "systematic transformation into an
// error-recoverable protocol") provides reliable channels over the same
// lossy wire.
//
// Run with:
//
//	go run ./examples/lossy
package main

import (
	"fmt"
	"log"

	protoderive "repro"
)

const serviceSrc = `
SPEC
  order1; ship2; bill3; exit >> pay1; close2; exit
ENDSPEC`

func main() {
	svc, err := protoderive.ParseService(serviceSrc)
	if err != nil {
		log.Fatal(err)
	}
	proto, err := svc.Derive()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("service: order → ship → bill, then pay → close")
	fmt.Printf("derived entities exchange %d synchronization messages per run\n\n", proto.MessageCount())

	lossRates := []float64{0.0, 0.3, 0.6}

	fmt.Println("-- Bare medium (the paper's reliability assumption broken):")
	for _, loss := range lossRates {
		completed, deadlocked := 0, 0
		for seed := int64(1); seed <= 10; seed++ {
			res, err := proto.Simulate(&protoderive.SimOptions{
				Seed:     seed,
				LossRate: loss,
			})
			if err != nil {
				log.Fatal(err)
			}
			if res.Completed {
				completed++
			}
			if res.Deadlocked {
				deadlocked++
			}
		}
		fmt.Printf("  loss=%.0f%%  completed %2d/10, stalled %2d/10\n",
			loss*100, completed, deadlocked)
	}

	fmt.Println("\n-- With the stop-and-wait ARQ layer (Section-6 transformation):")
	for _, loss := range lossRates {
		completed := 0
		invalid := 0
		for seed := int64(1); seed <= 10; seed++ {
			res, err := proto.Simulate(&protoderive.SimOptions{
				Seed:          seed,
				LossRate:      loss,
				ReliableLayer: true,
			})
			if err != nil {
				log.Fatal(err)
			}
			if res.Completed {
				completed++
			}
			if !res.TraceValid {
				invalid++
			}
		}
		fmt.Printf("  loss=%.0f%%  completed %2d/10, invalid traces %d\n",
			loss*100, completed, invalid)
	}
	fmt.Println("\nThe same derived entities run unchanged in both settings: the")
	fmt.Println("recovery lives entirely in the transport, as Section 6 proposes.")
}
