package service

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"testing"
)

// jsonShape maps each key of a JSON object to the type its value must have:
// "string", "number", "bool", "array" or "object". A key prefixed "?" is
// optional; any key not listed is an error.
type jsonShape map[string]string

// checkShape asserts that v is a JSON object with exactly the keys of want
// (optional ones may be absent), each holding a value of the named type.
func checkShape(t *testing.T, path string, v any, want jsonShape) map[string]any {
	t.Helper()
	obj, ok := v.(map[string]any)
	if !ok {
		t.Fatalf("%s: got %T, want object", path, v)
	}
	for k, typ := range want {
		key, optional := strings.CutPrefix(k, "?")
		val, present := obj[key]
		if !present {
			if !optional {
				t.Errorf("%s.%s: missing", path, key)
			}
			continue
		}
		if got := jsonType(val); got != typ {
			t.Errorf("%s.%s: got %s, want %s", path, key, got, typ)
		}
	}
	var extra []string
	for key := range obj {
		if _, ok := want[key]; !ok {
			if _, ok := want["?"+key]; !ok {
				extra = append(extra, key)
			}
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		t.Errorf("%s: unexpected keys %v", path, extra)
	}
	return obj
}

func jsonType(v any) string {
	switch v.(type) {
	case string:
		return "string"
	case float64:
		return "number"
	case bool:
		return "bool"
	case []any:
		return "array"
	case map[string]any:
		return "object"
	}
	return "null"
}

var (
	witnessShape = jsonShape{
		"kind": "string", "faults": "string", "channelCap": "number",
		"steps": "array", "trace": "array",
		"?missing": "array", "?matchedPrefix": "number",
	}
	witnessStepShape = jsonShape{
		"kind": "string", "place": "number", "tIndex": "number", "label": "string",
		"?from": "number", "?to": "number", "?msg": "string", "?index": "number",
	}
	matrixCellShape = jsonShape{
		"faults": "string", "ok": "bool", "complete": "bool", "tracesEqual": "bool",
		"deadlocks": "number", "summary": "string", "?witness": "object",
	}
	compositionalShape = jsonShape{
		"entities": "array", "productStates": "number", "productTransitions": "number",
		"buildNanos": "number", "productNanos": "number", "reused": "number",
		"reuseRatio": "number", "?fallback": "string",
	}
	entityQuotientShape = jsonShape{
		"place": "number", "exactStates": "number", "quotientStates": "number",
		"exactTransitions": "number", "quotientTransitions": "number",
		"buildNanos": "number", "reused": "bool",
	}
	reductionShape = jsonShape{
		"enabled": "string", "?symmetryColumns": "number", "?orbitsCollapsed": "number",
		"?ampleHits": "number", "?spillRuns": "number", "?spilledBytes": "number",
		"?peakMemBytes": "number", "?fallback": "string",
	}
	// labels is the one key the engine's own statistics add to the wire.
	equivShape = jsonShape{
		"states": "number", "transitions": "number", "?labels": "number",
		"tauSccs": "number", "saturationEdges": "number", "refinementRounds": "number",
		"blocks": "number", "saturateNanos": "number", "refineNanos": "number",
	}
	complexityShape = jsonShape{
		"Places": "number", "Seq": "number", "Choice": "number",
		"DisableRel": "number", "DisableInterr": "number", "Instantiate": "number",
	}
)

func checkWitness(t *testing.T, path string, v any) {
	t.Helper()
	w := checkShape(t, path, v, witnessShape)
	steps, _ := w["steps"].([]any)
	if len(steps) == 0 {
		t.Fatalf("%s.steps: empty", path)
	}
	for _, st := range steps {
		checkShape(t, path+".steps[]", st, witnessStepShape)
	}
}

func postRaw(t *testing.T, url string, body any) map[string]any {
	t.Helper()
	resp := postJSON(t, url, body)
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var out map[string]any
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestWireContract pins the daemon's JSON for a failing compositional verify
// with one fault column and for a derive: the keys and value types of every
// nested report object clients read.
func TestWireContract(t *testing.T) {
	src, err := os.ReadFile("../../specs/example6.spec")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{})

	v := postRaw(t, ts.URL+"/v1/verify", VerifyRequest{
		Spec:    string(src),
		Options: VerifyRequestOptions{Compositional: true, Faults: []string{"loss"}},
	})
	if v["ok"] != false {
		t.Fatalf("example6 verified ok; the contract needs a failing verdict")
	}
	checkWitness(t, "witness", v["witness"])
	if f := v["witness"].(map[string]any)["faults"]; f != "reliable" {
		t.Errorf("witness.faults = %v, want \"reliable\"", f)
	}
	cells, _ := v["faultMatrix"].([]any)
	if len(cells) != 1 {
		t.Fatalf("faultMatrix has %d cells, want 1", len(cells))
	}
	cell := checkShape(t, "faultMatrix[]", cells[0], matrixCellShape)
	checkWitness(t, "faultMatrix[].witness", cell["witness"])
	if f := cell["witness"].(map[string]any)["faults"]; f != "loss" {
		t.Errorf("faultMatrix[].witness.faults = %v, want \"loss\"", f)
	}
	comp := checkShape(t, "compositional", v["compositional"], compositionalShape)
	ents, _ := comp["entities"].([]any)
	if len(ents) == 0 {
		t.Fatal("compositional.entities: empty")
	}
	for _, e := range ents {
		checkShape(t, "compositional.entities[]", e, entityQuotientShape)
	}
	checkShape(t, "reduction", v["reduction"], reductionShape)
	checkShape(t, "equiv", v["equiv"], equivShape)

	d := postRaw(t, ts.URL+"/v1/derive", DeriveRequest{Spec: string(src)})
	checkShape(t, "complexity", d["complexity"], complexityShape)
}
