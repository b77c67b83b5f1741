package main

import (
	"fmt"
	"reflect"
	"strings"

	protoderive "repro"
	"repro/internal/compose"
	"repro/internal/core"
	"repro/internal/lotos"
	"repro/internal/sim"
)

// The fault-matrix workload is what a user or the CI gate does every day:
// verify every corpus spec at channel capacities 1 and 2 under the
// reliable medium and each single fault, and replay every counterexample.
// Most cells are small products, so per-call costs (cloning, interning,
// witness extraction, replay) show here and per-state exploration cost
// does not dominate.

var matrixModels = []protoderive.FaultModel{{}, {Loss: true}, {Duplication: true}, {Reorder: true}}

// matrixObsDepth and the state caps are the corpus fault-matrix bounds.
const matrixObsDepth = 4

func matrixMaxStates(spec string) int {
	if strings.HasPrefix(spec, "multi") {
		// Every multiinstance/multiring cell overflows any affordable cap;
		// the truncated verdict is the same at 4000 states as at 20000.
		return 4000
	}
	return 20000
}

type fmSpec struct {
	proto *protoderive.Protocol
	deriv *core.Derivation // traced runs only
}

func runFaultMatrix(cfg config, exp *expectations) (*outcome, error) {
	o := newOutcome()
	tr := cfg.newTracer()
	var names []string
	for _, n := range corpusNames() {
		if cfg.quick && strings.HasPrefix(n, "multi") {
			continue
		}
		names = append(names, n)
	}
	specs, err := setup(cfg, o, tr, func(sp *spanRef) (map[string]*fmSpec, error) {
		out := map[string]*fmSpec{}
		for _, n := range names {
			var s fmSpec
			c := sp.child("protoderive.ParseService+Derive")
			svc, err := protoderive.ParseService(corpusSource(n))
			if err == nil {
				s.proto, err = svc.Derive()
			}
			c.end()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", n, err)
			}
			if tr != nil {
				if s.deriv, err = deriveLayers(sp, tr, corpusSource(n)); err != nil {
					return nil, fmt.Errorf("%s: %w", n, err)
				}
			}
			out[n] = &s
		}
		return out, nil
	}, nil)
	if err != nil {
		return nil, err
	}

	chanCaps := []int{1, 2}
	if cfg.quick {
		chanCaps = chanCaps[:1]
	}
	var ops []op
	for _, n := range names {
		for _, chanCap := range chanCaps {
			for _, fm := range matrixModels {
				key := fmt.Sprintf("%s/cap%d/%s", n, chanCap, fm)
				want, ok := exp.FaultMatrix[key]
				if !ok {
					return nil, fmt.Errorf("expected.json has no fault-matrix cell %s", key)
				}
				s, opts := specs[n], protoderive.VerifyOptions{
					ChannelCap: chanCap,
					ObsDepth:   matrixObsDepth,
					MaxStates:  matrixMaxStates(n),
					Faults:     fm,
				}
				ops = append(ops, op{name: key, run: func(sp *spanRef) error {
					if sp == nil {
						return verifyCell(s.proto, opts, want)
					}
					return verifyCellSplit(sp, tr, s.deriv, opts, want)
				}})
			}
		}
	}
	measure(cfg, o, ops, tr)
	o.notes["cells"] = len(ops)
	return o, nil
}

// verifyCell is one cell as a user runs it: Protocol.Verify, then
// Protocol.Replay of the counterexample.
func verifyCell(p *protoderive.Protocol, opts protoderive.VerifyOptions, want cellWant) error {
	rep, err := p.Verify(&opts)
	if err != nil {
		return err
	}
	kind := ""
	if rep.Witness != nil {
		kind = rep.Witness.Kind
	}
	if rep.Ok != want.OK || kind != want.Witness {
		return fmt.Errorf("verdict ok=%v witness=%q, want ok=%v witness=%q", rep.Ok, kind, want.OK, want.Witness)
	}
	if rep.Witness == nil {
		return nil
	}
	res, err := p.Replay(rep.Witness)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	return checkReplay(res.Trace, res.Deadlocked, rep.Witness.Trace, rep.Witness.Kind)
}

// checkReplay checks that a replay reached the divergence its witness
// claims.
func checkReplay(got []string, deadlocked bool, want []string, kind string) error {
	if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
		return fmt.Errorf("replayed trace %q, witness trace %q", got, want)
	}
	if kind == compose.WitnessDeadlock && !deadlocked {
		return fmt.Errorf("deadlock witness did not deadlock on replay")
	}
	return nil
}

// verifyCellSplit is one cell split into its layers: the phases of
// compose.Verify (splitVerify), the verdict cross-checked against
// compose.Verify{NoWitness}, and for a failed cell the witness extraction
// (compose.Verify minus compose.Verify{NoWitness}) and sim.ReplayWitness.
func verifyCellSplit(sp *spanRef, tr *tracer, d *core.Derivation, fo protoderive.VerifyOptions, want cellWant) error {
	opts := compose.VerifyOptions{
		ChannelCap: fo.ChannelCap,
		ObsDepth:   fo.ObsDepth,
		MaxStates:  fo.MaxStates,
		Faults:     compose.FaultModel{Loss: fo.Faults.Loss, Duplication: fo.Faults.Duplication, Reorder: fo.Faults.Reorder},
	}
	v, err := splitVerify(sp, tr, d, opts)
	if err != nil {
		return err
	}
	nw := opts
	nw.NoWitness = true
	c := sp.child("compose.Verify{NoWitness}")
	base, err := compose.Verify(lotos.CloneSpec(d.Service.Spec), cloneEntities(d.Entities), nw)
	baseMS := c.end()
	if err != nil {
		return err
	}
	if base.Ok() != v.ok {
		return fmt.Errorf("split verdict ok=%v, compose.Verify ok=%v", v.ok, base.Ok())
	}
	kind := ""
	if !v.ok {
		c = sp.child("compose.Verify")
		full, err := compose.Verify(lotos.CloneSpec(d.Service.Spec), cloneEntities(d.Entities), opts)
		fullMS := c.end()
		if err != nil {
			return err
		}
		if w := full.Witness; w != nil {
			kind = w.Kind
			tr.count("witness.extractions", 1)
			tr.count("witness.ms", max(0, fullMS-baseMS))
			tr.count("witness.steps", float64(len(w.Steps)))
			c = sp.child("sim.ReplayWitness")
			res, err := sim.ReplayWitness(cloneEntities(d.Entities), w)
			c.end()
			if err != nil {
				return fmt.Errorf("replay: %w", err)
			}
			if err := checkReplay(res.Trace, res.Deadlocked, w.Trace, w.Kind); err != nil {
				return err
			}
			tr.count("replay.matched", 1)
		}
	}
	if v.ok != want.OK || kind != want.Witness {
		return fmt.Errorf("verdict ok=%v witness=%q, want ok=%v witness=%q", v.ok, kind, want.OK, want.Witness)
	}
	return nil
}
