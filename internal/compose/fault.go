package compose

import (
	"fmt"
	"strings"
)

// FaultModel selects which medium faults the product exploration composes in
// alongside the reliable FIFO behaviour of Section 5.2. Every enabled fault
// contributes internal (unobservable) global transitions: faults are the
// medium's moves, invisible to the service users, exactly like the message
// interactions themselves. The zero value is the paper's reliable medium.
//
// Fault transitions keep the state space finite: duplication respects the
// channel capacity (a duplicate that would overflow the medium buffer is
// absorbed), and loss and reordering never grow a queue.
//
// A FaultModel marshals as its canonical name (see String), so JSON carries
// "loss+dup" rather than an object.
type FaultModel struct {
	// Loss lets the medium silently drop any in-transit message: one
	// internal transition per queued message position.
	Loss bool
	// Duplication lets the medium deliver an in-transit message twice: one
	// internal transition per queued message position inserting an adjacent
	// copy, enabled while the channel has capacity for it.
	Duplication bool
	// Reorder lets the medium swap two adjacent in-transit messages on one
	// channel — the minimal FIFO violation; repeated swaps generate every
	// permutation the capacity admits.
	Reorder bool
}

// Reliable is the zero fault model: the paper's medium.
var Reliable = FaultModel{}

// Any reports whether at least one fault is enabled.
func (f FaultModel) Any() bool { return f.Loss || f.Duplication || f.Reorder }

// String renders the model canonically: "reliable", "loss", "dup",
// "reorder", or a "+"-joined combination in that fixed order.
func (f FaultModel) String() string {
	if !f.Any() {
		return "reliable"
	}
	var parts []string
	if f.Loss {
		parts = append(parts, "loss")
	}
	if f.Duplication {
		parts = append(parts, "dup")
	}
	if f.Reorder {
		parts = append(parts, "reorder")
	}
	return strings.Join(parts, "+")
}

// MarshalText renders the canonical name.
func (f FaultModel) MarshalText() ([]byte, error) { return []byte(f.String()), nil }

// UnmarshalText parses a name with ParseFaultModel.
func (f *FaultModel) UnmarshalText(b []byte) error {
	m, err := ParseFaultModel(string(b))
	if err != nil {
		return err
	}
	*f = m
	return nil
}

// ParseFaultModel parses one fault-model spec: "reliable" (or "none"), or a
// "+"-joined combination of "loss", "dup" (or "duplication"), "reorder"
// (or "reordering"), e.g. "loss+dup".
func ParseFaultModel(s string) (FaultModel, error) {
	var f FaultModel
	s = strings.TrimSpace(strings.ToLower(s))
	if s == "" || s == "reliable" || s == "none" {
		return f, nil
	}
	for _, part := range strings.Split(s, "+") {
		switch strings.TrimSpace(part) {
		case "loss":
			f.Loss = true
		case "dup", "duplication":
			f.Duplication = true
		case "reorder", "reordering":
			f.Reorder = true
		default:
			return FaultModel{}, fmt.Errorf("unknown fault model %q (want loss, dup, reorder, reliable, or a + combination)", part)
		}
	}
	return f, nil
}

// ParseFaultModels parses a comma-separated list of fault-model specs, e.g.
// "loss,dup,reorder" or "loss,loss+dup". Duplicate models are collapsed.
func ParseFaultModels(s string) ([]FaultModel, error) {
	var out []FaultModel
	seen := map[FaultModel]bool{}
	for _, part := range strings.Split(s, ",") {
		if strings.TrimSpace(part) == "" {
			continue
		}
		f, err := ParseFaultModel(part)
		if err != nil {
			return nil, err
		}
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	return out, nil
}
