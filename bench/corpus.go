package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/lotos"
)

// The corpus and the expected outputs are embedded, so a run depends only
// on the benchmark's own files and the seed, and the recorded verdicts
// always describe exactly the inputs they were recorded for.
//
//go:embed testdata/specs/*.spec testdata/expected.json
var testdata embed.FS

// corpusNames lists the corpus specifications, sorted.
func corpusNames() []string {
	entries, err := testdata.ReadDir("testdata/specs")
	if err != nil {
		panic(err) // embedded at build time
	}
	var out []string
	for _, e := range entries {
		out = append(out, strings.TrimSuffix(e.Name(), ".spec"))
	}
	sort.Strings(out)
	return out
}

func corpusSource(name string) string {
	b, err := testdata.ReadFile("testdata/specs/" + name + ".spec")
	if err != nil {
		panic(fmt.Sprintf("corpus spec %q: %v", name, err))
	}
	return string(b)
}

// theoremCovered reports whether the Section-5 theorem covers a corpus
// spec: the disabling operator "[>" is excluded by the theorem itself.
func theoremCovered(name string) bool { return !strings.Contains(corpusSource(name), "[>") }

// cellWant is the expected verdict of one fault-matrix cell.
type cellWant struct {
	OK      bool   `json:"ok"`
	Witness string `json:"witness,omitempty"`
}

// largeWant is the expected outcome of one large-state operation.
type largeWant struct {
	States      int64 `json:"states"`
	Transitions int64 `json:"transitions,omitempty"`
	OK          bool  `json:"ok,omitempty"`
	Complete    bool  `json:"complete,omitempty"`
	Bisimilar   bool  `json:"bisimilar,omitempty"`
	// MaxPeakIndexBytes bounds the spilling explorer's in-memory index:
	// the budget plus one entry.
	MaxPeakIndexBytes int64 `json:"max_peak_index_bytes,omitempty"`
}

// expectations are the hand-recorded outputs every operation is checked
// against; any mismatch is a failed operation.
type expectations struct {
	// FaultMatrix maps "spec/capN/faults" to the cell's verdict, copied
	// from the corpus fault-matrix golden table of the root package tests.
	FaultMatrix map[string]cellWant `json:"fault_matrix"`
	// LargeState maps each large-state operation to its exact counts.
	LargeState map[string]largeWant `json:"large_state"`
	// SimOutcomes lists the session outcomes each sim-check service may
	// end in.
	SimOutcomes map[string][]string `json:"sim_outcomes"`
	// DeriveMessages maps a derive key to its static message count: a
	// corpus name with its option suffix, or a fresh-spec template cell
	// "family/places/events".
	DeriveMessages map[string]int `json:"derive_messages"`
	// DaemonVerify maps a working-set verify key "spec/capN/obsD" to its
	// verdict.
	DaemonVerify map[string]bool `json:"daemon_verify"`
}

func loadExpectations() (*expectations, error) {
	b, err := testdata.ReadFile("testdata/expected.json")
	if err != nil {
		return nil, err
	}
	var e expectations
	if err := json.Unmarshal(b, &e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &e, nil
}

// cloneEntities deep-copies an entity map: exploration and the runtime
// resolve specification trees in place, so every call gets its own copy,
// as the facade does.
func cloneEntities(m map[int]*lotos.Spec) map[int]*lotos.Spec {
	out := make(map[int]*lotos.Spec, len(m))
	for p, sp := range m {
		out[p] = lotos.CloneSpec(sp)
	}
	return out
}
