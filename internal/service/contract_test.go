package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"testing"

	protoderive "repro"
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
	// matrixCellShape is protoderive.VerifyReport on the wire: a fault-matrix
	// cell, and the verdict keys of every verify response.
	matrixCellShape = jsonShape{
		"faults": "string", "ok": "bool", "complete": "bool", "weakBisimilar": "bool",
		"tracesEqual": "bool", "obsDepth": "number", "deadlocks": "number",
		"serviceStates": "number", "composedStates": "number", "summary": "string",
		"?witness": "object", "?equiv": "object", "?compositional": "object", "?reduction": "object",
	}
	// verifyShape is the top level of a /v1/verify response: the verdict
	// keys plus the daemon's own.
	verifyShape = withKeys(matrixCellShape, jsonShape{
		"cached": "bool", "messageCount": "number", "specDigest": "string", "?faultMatrix": "array",
	})
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

// withKeys returns a shape with the keys of both shapes.
func withKeys(a, b jsonShape) jsonShape {
	out := jsonShape{}
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		out[k] = v
	}
	return out
}

// checkReportObjects checks the nested report objects of a verdict object
// that carries all of them (a complete, compositional verification).
func checkReportObjects(t *testing.T, path string, v map[string]any) {
	t.Helper()
	comp := checkShape(t, path+"compositional", v["compositional"], compositionalShape)
	ents, _ := comp["entities"].([]any)
	if len(ents) == 0 {
		t.Fatalf("%scompositional.entities: empty", path)
	}
	for _, e := range ents {
		checkShape(t, path+"compositional.entities[]", e, entityQuotientShape)
	}
	checkShape(t, path+"reduction", v["reduction"], reductionShape)
	checkShape(t, path+"equiv", v["equiv"], equivShape)
}

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
// with one fault column and for a derive: the top-level keys of the verify
// response and the keys and value types of every nested report object
// clients read.
func TestWireContract(t *testing.T) {
	src, err := os.ReadFile("../../specs/example6.spec")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{})

	opts := VerifyRequestOptions{Compositional: true, Faults: []string{"loss"}}
	v := postRaw(t, ts.URL+"/v1/verify", VerifyRequest{Spec: string(src), Options: opts})
	checkShape(t, "", v, verifyShape)
	if v["ok"] != false {
		t.Fatalf("example6 verified ok; the contract needs a failing verdict")
	}
	if v["faults"] != "reliable" {
		t.Errorf("faults = %v, want \"reliable\"", v["faults"])
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
	checkReportObjects(t, "faultMatrix[].", cell)
	checkReportObjects(t, "", v)

	d := postRaw(t, ts.URL+"/v1/derive", DeriveRequest{Spec: string(src)})
	checkShape(t, "complexity", d["complexity"], complexityShape)
}

// TestVerifyResponseIsFacadeReport: a daemon verify response decodes into
// the protoderive.VerifyReport that Protocol.Verify returns for the same
// spec and options, its *Nanos timings aside — and so does each fault-matrix
// cell, against Protocol.Verify under the cell's fault model. The
// compositional request runs over a fresh artifact cache on both sides, in
// the daemon's order (reliable first, then each model), so the artifact
// reuse counts agree too.
func TestVerifyResponseIsFacadeReport(t *testing.T) {
	src, err := os.ReadFile("../../specs/example6.spec")
	if err != nil {
		t.Fatal(err)
	}
	for _, compositional := range []bool{false, true} {
		_, ts := newTestServer(t, Config{})
		v := postJSON(t, ts.URL+"/v1/verify", VerifyRequest{
			Spec:    string(src),
			Options: VerifyRequestOptions{Compositional: compositional, Faults: []string{"loss", "dup"}},
		})
		if v.StatusCode != http.StatusOK {
			t.Fatalf("status %d", v.StatusCode)
		}
		got := decode[VerifyResponse](t, v)

		proto, err := protoderive.MustParseService(string(src)).Derive()
		if err != nil {
			t.Fatal(err)
		}
		proto.UseArtifacts(protoderive.NewArtifactCache(0))
		opts := protoderive.VerifyOptions{Compositional: compositional}
		want, err := proto.Verify(&opts)
		if err != nil {
			t.Fatal(err)
		}
		sameReport(t, fmt.Sprintf("compositional=%t reliable", compositional), want, &got.VerifyReport)
		if len(got.FaultMatrix) != 2 {
			t.Fatalf("faultMatrix has %d cells, want 2", len(got.FaultMatrix))
		}
		for i, fm := range []protoderive.FaultModel{{Loss: true}, {Duplication: true}} {
			opts.Faults = fm
			want, err := proto.Verify(&opts)
			if err != nil {
				t.Fatal(err)
			}
			sameReport(t, fmt.Sprintf("compositional=%t %s", compositional, fm), want, got.FaultMatrix[i])
		}
	}
}

// sameReport requires two verdict records to encode alike once their
// *Nanos timings are cleared. (A decoded witness step lacks the in-memory
// event the wire omits, so the records compare by encoding.)
func sameReport(t *testing.T, what string, want, got *protoderive.VerifyReport) {
	t.Helper()
	clearTimings(want)
	clearTimings(got)
	w, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	g, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(w) != string(g) {
		t.Errorf("%s: daemon report differs from Protocol.Verify:\n--- facade\n%s\n--- daemon\n%s", what, w, g)
	}
}

func clearTimings(r *protoderive.VerifyReport) {
	if e := r.Equiv; e != nil {
		e.SaturateNanos, e.RefineNanos = 0, 0
	}
	if c := r.Compositional; c != nil {
		c.BuildNanos, c.ProductNanos = 0, 0
		for i := range c.Entities {
			c.Entities[i].BuildNanos = 0
		}
	}
}
