// Package core implements the paper's primary contribution: the automatic
// derivation of protocol entity specifications from a service specification
// (Section 4, Tables 3 and 4).
//
// Given a service specification S over service access points (places)
// 1..n, Derive produces one protocol entity specification T_p(S) per place.
// Each entity contains only the service interactions local to its place,
// plus the send/receive synchronization messages that enforce the global
// temporal ordering of the service:
//
//   - action prefix ";" and sequential composition ">>" generate
//     Synch_Left/Synch_Right messages from the ending places of the left
//     part to the starting places of the right part (Section 3.1);
//   - choice "[]" generates Alternative messages from the deciding place to
//     the places that do not participate in the chosen alternative
//     (Section 3.2);
//   - disabling "[>" generates Rel termination-barrier messages and Interr
//     interrupt broadcasts (Section 3.3);
//   - process instantiation generates Proc_Synch messages from the starting
//     places of the process to all other places (Section 3.4), and every
//     message is parameterized by a process occurrence number so that
//     multiple instances of one process cannot be confused (Section 3.5).
//
// The derivation preserves the structure of the service specification: each
// entity has the same process definitions, the same operators, and local
// projections of the same behaviour — the property the paper's correctness
// proof (Section 5) relies on.
package core

import (
	"fmt"

	"repro/internal/apf"
	"repro/internal/attr"
	"repro/internal/lotos"
)

// InterruptMode selects the distributed implementation of the disabling
// operator "[>" (Section 3.3).
type InterruptMode int

const (
	// InterruptBroadcast is the paper's primary implementation: the
	// disabling event executes immediately and a broadcast informs the
	// other places (functions Interr/Synch_Left). Cheap (at most n-2 extra
	// messages) but deviates from the LOTOS semantics: normal-part events
	// may still occur while the broadcast is in flight.
	InterruptBroadcast InterruptMode = iota
	// InterruptHandshake is the paper's sketched alternative: an interrupt
	// REQUEST is broadcast first, every place stops and ACKNOWLEDGES, and
	// only then does the disabling event execute. Trace-faithful to the
	// LOTOS semantics for non-terminating normal parts, at 2(n-1) messages
	// per interrupt. The termination race of the broadcast mode (see
	// EXPERIMENTS.md, E11) persists when the normal part can terminate —
	// the paper's sketch does not resolve it either.
	InterruptHandshake
)

// Options configures Derive.
type Options struct {
	// KeepRedundant retains derivation artifacts that the simplifier
	// (the "empty"-elimination rules of Section 4.2) would remove. Useful
	// for inspecting the raw output of the T_p rules.
	KeepRedundant bool
	// SkipRestrictions derives even when the restrictions R1-R3 fail.
	// The result is generally incorrect; intended for experiments that
	// demonstrate why the restrictions exist.
	SkipRestrictions bool
	// Dialect1986 restricts the accepted service language to the operators
	// of the original SIGCOMM'86 algorithm: action prefix ";", choice "[]"
	// and pure interleaving "|||" with no process instantiation. Derive
	// rejects anything else, mirroring the scope of [Boch 86].
	Dialect1986 bool
	// Interrupt selects the disabling implementation (Section 3.3).
	Interrupt InterruptMode
}

// Derivation is the result of deriving all protocol entities of a service.
type Derivation struct {
	// Service is the analyzed service specification actually derived from:
	// a clone of the input, with disabling right-hand sides normalized to
	// action prefix form and nodes renumbered.
	Service *attr.Info
	// Places lists the service access points (the attribute ALL), sorted.
	Places []int
	// Entities maps each place to its derived protocol entity.
	Entities map[int]*lotos.Spec
	// Opts records the options the derivation ran with.
	Opts Options
}

// Entity returns the derived specification for a place (nil if the place is
// not part of the service).
func (d *Derivation) Entity(place int) *lotos.Spec { return d.Entities[place] }

// Derive runs the full derivation algorithm of Section 4 on the service
// specification:
//
//	Step 1: build the syntax tree (the caller has parsed it) and normalize
//	        disabling expressions to action prefix form;
//	Step 2: number the nodes and synthesize the attributes SP/EP/AP;
//	Step 3: apply the projection T_p for every place p in ALL.
//
// The input specification is not modified.
func Derive(sp *lotos.Spec, opts Options) (*Derivation, error) {
	if opts.Dialect1986 {
		if err := check1986(sp); err != nil {
			return nil, err
		}
	}
	work := lotos.CloneSpec(sp)
	if _, err := apf.TransformSpec(work); err != nil {
		return nil, fmt.Errorf("core: action-prefix-form transformation: %w", err)
	}
	info, err := attr.Analyze(work)
	if err != nil {
		return nil, fmt.Errorf("core: attribute evaluation: %w", err)
	}
	if !opts.SkipRestrictions {
		if errs := info.CheckRestrictions(); len(errs) > 0 {
			return nil, fmt.Errorf("core: %w", errs[0])
		}
	}
	d := &Derivation{
		Service:  info,
		Places:   info.All.Sorted(),
		Entities: map[int]*lotos.Spec{},
		Opts:     opts,
	}
	for _, p := range d.Places {
		proj := &projector{info: info, place: p, raw: opts.KeepRedundant, interrupt: opts.Interrupt}
		entity := proj.spec(work)
		if !opts.KeepRedundant {
			simplifySpec(entity)
		}
		d.Entities[p] = entity
	}
	return d, nil
}

// check1986 rejects constructs beyond the scope of the original 1986
// algorithm.
func check1986(sp *lotos.Spec) error {
	var err error
	lotos.WalkSpec(sp, func(e lotos.Expr) {
		if err != nil {
			return
		}
		switch x := e.(type) {
		case *lotos.Enable:
			err = fmt.Errorf("core: '>>' requires the extended algorithm (not in the 1986 subset)")
		case *lotos.Disable:
			err = fmt.Errorf("core: '[>' requires the extended algorithm (not in the 1986 subset)")
		case *lotos.Parallel:
			if x.Kind != lotos.ParInterleave {
				err = fmt.Errorf("core: synchronized parallelism requires the extended algorithm (not in the 1986 subset)")
			}
		case *lotos.ProcRef:
			err = fmt.Errorf("core: process instantiation requires the extended algorithm (not in the 1986 subset)")
		}
	})
	if err != nil {
		return err
	}
	if len(sp.Root.Procs) > 0 {
		return fmt.Errorf("core: process definitions require the extended algorithm (not in the 1986 subset)")
	}
	return nil
}

// Render returns the derived entities as concatenated text, one per place,
// in place order — the output format of the paper's Protocol Generator.
func (d *Derivation) Render() string {
	var b []byte
	for _, p := range d.Places {
		b = append(b, fmt.Sprintf("-- Protocol entity for place %d\n%s\n", p, d.Entities[p].String())...)
	}
	return string(b)
}

// SendCount returns the total number of send interactions across all
// derived entities — the number of synchronization messages exchanged per
// "straight-line" execution of each construct (used by the complexity
// analysis of Section 4.3).
func (d *Derivation) SendCount() int {
	n := 0
	for _, sp := range d.Entities {
		lotos.WalkSpec(sp, func(e lotos.Expr) {
			if pfx, ok := e.(*lotos.Prefix); ok && pfx.Ev.Kind == lotos.EvSend {
				n++
			}
		})
	}
	return n
}

// ReceiveCount returns the total number of receive interactions across all
// derived entities.
func (d *Derivation) ReceiveCount() int {
	n := 0
	for _, sp := range d.Entities {
		lotos.WalkSpec(sp, func(e lotos.Expr) {
			if pfx, ok := e.(*lotos.Prefix); ok && pfx.Ev.Kind == lotos.EvRecv {
				n++
			}
		})
	}
	return n
}
