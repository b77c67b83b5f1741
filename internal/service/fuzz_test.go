package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// Fuzz bounds. A request whose options would explore past them is skipped,
// not clamped, so every request the fuzzer sends is its input unchanged and
// every exec stays cheap. Zero and negative sizes select the defaults
// (20000 states, depth 8, 4096 compiled states per entity), all past the
// bounds; workers is bounded because a parallel verify starts that many.
const (
	fuzzMaxStates  = 2000
	fuzzMaxDepth   = 4
	fuzzMaxWorkers = 4
)

// fuzzSizes decodes every field of the three request bodies that sizes a
// computation: explore's top-level bounds and the options object that
// derive and verify share. Each field has the type the handlers decode it
// into, so a body this fails to decode fails the handlers' stricter
// decoding too.
type fuzzSizes struct {
	ObsDepth  int                  `json:"obsDepth"`
	MaxStates int                  `json:"maxStates"`
	Options   VerifyRequestOptions `json:"options"`
}

func within(v, max int) bool { return v > 0 && v <= max }

// bounded reports whether the request at path stays within the fuzz bounds.
func (z fuzzSizes) bounded(path string) bool {
	o := z.Options
	switch path {
	case "/v1/derive":
		return !o.Compile || within(o.CompileMaxStates, fuzzMaxStates)
	case "/v1/explore":
		return within(z.ObsDepth, fuzzMaxDepth) && within(z.MaxStates, fuzzMaxStates)
	default: // verify
		return within(o.ObsDepth, fuzzMaxDepth) && within(o.MaxStates, fuzzMaxStates) &&
			o.Workers <= fuzzMaxWorkers
	}
}

// fuzzStatuses are the statuses each POST handler documents: 200 with its
// response, or an ErrorResponse with 400 (bad body, spec or option), 413
// (body over the cap) or 503 (deadline expired while queued).
var fuzzStatuses = map[string][]int{
	"/v1/derive":  {200, 400, 413, 503},
	"/v1/explore": {200, 400, 413, 503},
	"/v1/verify":  {200, 400, 413, 503},
}

// FuzzDaemonRequest posts each input as the body of every POST endpoint of
// a fresh Server. Whatever the body: no panic, a documented status, a
// non-200 body that decodes as an ErrorResponse with a message, and a 200
// body that is valid JSON.
func FuzzDaemonRequest(f *testing.F) {
	// Seeds: the request bodies of server_test.go, with the bounds set
	// where those tests leave them at the defaults.
	bounded := VerifyRequestOptions{ObsDepth: fuzzMaxDepth, MaxStates: fuzzMaxStates}
	withOpts := func(mut func(*VerifyRequestOptions)) VerifyRequestOptions {
		o := bounded
		mut(&o)
		return o
	}
	for _, body := range []string{
		"🤖",
		`{"spec":"x","bogus":1}`,
		`{"spec":"` + strings.Repeat("a", 4096) + `"}`,
	} {
		f.Add([]byte(body))
	}
	for _, req := range []any{
		DeriveRequest{Spec: validSpec},
		DeriveRequest{Spec: "SPEC  a1;\n ( b2; exit ) -- same spec\nENDSPEC"},
		DeriveRequest{Spec: validSpec, Options: DeriveRequestOptions{KeepRedundant: true}},
		DeriveRequest{Spec: "SPEC a1; exit\n[]\nENDSPEC"},
		DeriveRequest{Spec: r1ViolationSpec},
		DeriveRequest{Spec: "bogus"},
		DeriveRequest{Spec: validSpec, Options: DeriveRequestOptions{Compile: true, CompileMaxStates: fuzzMaxStates}},
		DeriveRequest{
			Spec:    "SPEC A WHERE PROC A = (a1; A >> b2; exit) [] (a1; b2; exit) END ENDSPEC",
			Options: DeriveRequestOptions{Compile: true, CompileMaxStates: 256},
		},
		VerifyRequest{Spec: validSpec, Options: bounded},
		VerifyRequest{Spec: validSpec, Options: withOpts(func(o *VerifyRequestOptions) { o.Parallel, o.Workers = true, 4 })},
		VerifyRequest{Spec: validSpec, Options: withOpts(func(o *VerifyRequestOptions) { o.Compositional = true })},
		VerifyRequest{Spec: validSpec, Options: withOpts(func(o *VerifyRequestOptions) { o.Faults = []string{"loss", "dup"} })},
		VerifyRequest{
			Spec:    "SPEC A WHERE PROC A = a1; b2; A [] c1; exit END ENDSPEC",
			Options: withOpts(func(o *VerifyRequestOptions) { o.Dialect1986 = true }),
		},
		ExploreRequest{Spec: validSpec, ObsDepth: fuzzMaxDepth, MaxStates: fuzzMaxStates, Traces: true},
		ExploreRequest{Spec: r1ViolationSpec, ObsDepth: fuzzMaxDepth, MaxStates: fuzzMaxStates},
	} {
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		var sizes fuzzSizes
		decoded := json.NewDecoder(bytes.NewReader(body)).Decode(&sizes) == nil
		s := New(Config{})
		for _, path := range []string{"/v1/derive", "/v1/explore", "/v1/verify"} {
			if decoded && !sizes.bounded(path) {
				continue
			}
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			checkFuzzResponse(t, path, rec, body)
		}
	})
}

func checkFuzzResponse(t *testing.T, path string, rec *httptest.ResponseRecorder, body []byte) {
	t.Helper()
	documented := false
	for _, c := range fuzzStatuses[path] {
		documented = documented || rec.Code == c
	}
	if !documented {
		t.Fatalf("POST %s: undocumented status %d: %s\nbody: %q", path, rec.Code, rec.Body.Bytes(), body)
	}
	if rec.Code == http.StatusOK {
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("POST %s: 200 with invalid JSON %q\nbody: %q", path, rec.Body.Bytes(), body)
		}
		return
	}
	dec := json.NewDecoder(rec.Body)
	dec.DisallowUnknownFields()
	var er ErrorResponse
	if err := dec.Decode(&er); err != nil || er.Error == "" {
		t.Fatalf("POST %s: status %d body is not an ErrorResponse (%v): %q\nbody: %q",
			path, rec.Code, err, rec.Body.Bytes(), body)
	}
}
