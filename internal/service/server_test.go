package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

const validSpec = "SPEC a1; b2; exit ENDSPEC"

// r1ViolationSpec violates R1: the choice is not decided at one place.
const r1ViolationSpec = "SPEC a1; exit [] b2; exit ENDSPEC"

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var out T
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return out
}

func TestDeriveEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/derive", DeriveRequest{Spec: validSpec})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	out := decode[DeriveResponse](t, resp)
	if out.Cached {
		t.Error("first request reported cached")
	}
	if len(out.Places) != 2 || out.Places[0] != 1 || out.Places[1] != 2 {
		t.Errorf("places = %v", out.Places)
	}
	for _, p := range []string{"1", "2"} {
		if !strings.Contains(out.Entities[p], "SPEC") {
			t.Errorf("entity %s missing or not a spec: %q", p, out.Entities[p])
		}
	}
	if out.MessageCount != out.Complexity.Total() {
		t.Errorf("messageCount %d != complexity total %d", out.MessageCount, out.Complexity.Total())
	}
	if out.Attributes == "" {
		t.Error("attributes table empty")
	}
}

func TestDeriveCachedOnRepeat(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	postJSON(t, ts.URL+"/v1/derive", DeriveRequest{Spec: validSpec}).Body.Close()
	out := decode[DeriveResponse](t, postJSON(t, ts.URL+"/v1/derive", DeriveRequest{Spec: validSpec}))
	if !out.Cached {
		t.Error("repeat request not served from cache")
	}
	// Normalization: extra whitespace, a comment and redundant parentheses
	// must hit the same content-addressed entry.
	variant := "SPEC  a1;\n ( b2; exit ) -- same spec\nENDSPEC"
	out = decode[DeriveResponse](t, postJSON(t, ts.URL+"/v1/derive", DeriveRequest{Spec: variant}))
	if !out.Cached {
		t.Error("textually different but structurally identical spec missed the cache")
	}
	st := s.CacheStats()
	if st.Misses != 1 || st.Hits != 2 {
		t.Errorf("cache stats = %+v", st)
	}
}

func TestDeriveOptionsSeparateCacheEntries(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	postJSON(t, ts.URL+"/v1/derive", DeriveRequest{Spec: validSpec}).Body.Close()
	out := decode[DeriveResponse](t, postJSON(t, ts.URL+"/v1/derive", DeriveRequest{
		Spec: validSpec, Options: DeriveRequestOptions{KeepRedundant: true},
	}))
	if out.Cached {
		t.Error("different options served the same cache entry")
	}
	if st := s.CacheStats(); st.Misses != 2 {
		t.Errorf("cache stats = %+v", st)
	}
}

func TestDeriveSyntaxErrorHasPosition(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/derive", DeriveRequest{Spec: "SPEC a1; exit\n[]\nENDSPEC"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
	out := decode[ErrorResponse](t, resp)
	if out.Error == "" || out.Line < 2 {
		t.Errorf("error response = %+v, want message and line >= 2", out)
	}
}

func TestDeriveRestrictionViolationHasRule(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/derive", DeriveRequest{Spec: r1ViolationSpec})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
	out := decode[ErrorResponse](t, resp)
	if out.Rule != "R1" {
		t.Errorf("error response = %+v, want rule R1", out)
	}
}

func TestDeriveRejectsBadBodies(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 512})
	for _, c := range []struct {
		name   string
		body   string
		status int
	}{
		{"not json", "🤖", http.StatusBadRequest},
		{"unknown field", `{"spec":"x","bogus":1}`, http.StatusBadRequest},
		{"oversized", `{"spec":"` + strings.Repeat("a", 4096) + `"}`, http.StatusRequestEntityTooLarge},
	} {
		t.Run(c.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/derive", "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != c.status {
				t.Errorf("status %d, want %d", resp.StatusCode, c.status)
			}
		})
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/derive")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/derive: status %d", resp.StatusCode)
	}
}

func TestVerifyEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/verify", VerifyRequest{
		Spec:    validSpec,
		Options: VerifyRequestOptions{ObsDepth: 6},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	out := decode[VerifyResponse](t, resp)
	if !out.Ok || !out.TracesEqual || out.Deadlocks != 0 {
		t.Errorf("verify verdict = %+v", out)
	}
	if out.ServiceStates == 0 || out.ComposedStates == 0 || out.Summary == "" {
		t.Errorf("exploration sizes missing: %+v", out)
	}
}

// TestVerifyEquivStatsInMetrics asserts the equivalence-engine counters:
// a complete verification carries its per-check stats in the response, the
// /metrics aggregate records it exactly once, and a cache hit does not
// re-count.
func TestVerifyEquivStatsInMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	out := decode[VerifyResponse](t, postJSON(t, ts.URL+"/v1/verify", VerifyRequest{Spec: validSpec}))
	if !out.Complete {
		t.Fatalf("expected complete verification: %+v", out)
	}
	if out.Equiv == nil {
		t.Fatal("complete verification carries no equiv stats")
	}
	if out.Equiv.States == 0 || out.Equiv.TauSCCs == 0 || out.Equiv.SaturationEdges == 0 ||
		out.Equiv.RefinementRounds == 0 || out.Equiv.Blocks == 0 {
		t.Errorf("equiv stats have zero counters: %+v", *out.Equiv)
	}

	// Repeat (cache hit) and then snapshot the aggregate.
	decode[VerifyResponse](t, postJSON(t, ts.URL+"/v1/verify", VerifyRequest{Spec: validSpec}))
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page := decode[MetricsPage](t, resp)
	eq := page.Equiv
	if eq.Checks != 1 {
		t.Errorf("aggregate checks = %d, want 1 (cache hit must not re-count)", eq.Checks)
	}
	if eq.TauSCCs != uint64(out.Equiv.TauSCCs) || eq.SaturationEdges != uint64(out.Equiv.SaturationEdges) ||
		eq.RefinementRounds != uint64(out.Equiv.RefinementRounds) {
		t.Errorf("aggregate %+v does not match per-check stats %+v", eq, *out.Equiv)
	}
	if eq.SaturateMS < 0 || eq.RefineMS < 0 {
		t.Errorf("negative phase times: %+v", eq)
	}
}

// editedSpec renames the gate at place 2 of validSpec. Place 1's derived
// entity stays byte-identical (messages are keyed by behaviour-tree
// position), so its machine can be recalled from the artifact cache.
const editedSpec = "SPEC a1; c2; exit ENDSPEC"

// TestVerifyReusesUnchangedEntities: compositional verifications on one
// daemon share its artifact cache, keyed by entity content. After a spec is
// verified, verifying a one-gate edit of it recalls the unchanged place's
// machine and rebuilds only the edited one, and the response and /metrics
// say so.
func TestVerifyReusesUnchangedEntities(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	verify := compositionalVerifier(t, ts.URL)
	reused := func(out VerifyResponse) map[int]bool {
		m := map[int]bool{}
		for _, e := range out.Compositional.Entities {
			m[e.Place] = e.Reused
		}
		return m
	}

	for place, r := range reused(verify(validSpec)) {
		if r {
			t.Errorf("place %d reused on a cold daemon", place)
		}
	}
	edited := verify(editedSpec)
	if edited.Cached {
		t.Error("first verify of the edited spec reported cached")
	}
	if r := reused(edited); !r[1] || r[2] {
		t.Errorf("edited spec reuse by place = %v, want place 1 reused and place 2 rebuilt", r)
	}

	page := decode[MetricsPage](t, mustGet(t, ts.URL+"/metrics"))
	if page.Compositional.EntitiesReused == 0 || page.Artifacts.EntityHits == 0 || page.CompositionalReuseRatio <= 0 {
		t.Errorf("metrics record no reuse: compositional %+v, artifacts %+v, reuse ratio %v",
			page.Compositional, page.Artifacts, page.CompositionalReuseRatio)
	}
}

// TestVerifyCachedOnRepeat: after a compositional verification of a spec
// and of a one-gate edit of it, the first edited request is computed and
// an identical repeat is served from the result cache.
func TestVerifyCachedOnRepeat(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	verify := compositionalVerifier(t, ts.URL)
	verify(validSpec)
	if verify(editedSpec).Cached {
		t.Error("first verify of the edited spec reported cached")
	}
	if !verify(editedSpec).Cached {
		t.Error("repeated verify of the edited spec not served from the result cache")
	}
}

// compositionalVerifier returns a helper that posts a compositional
// /v1/verify of a spec to the server at url and fails the test unless the
// spec verifies with a compositional report.
func compositionalVerifier(t *testing.T, url string) func(spec string) VerifyResponse {
	return func(spec string) VerifyResponse {
		t.Helper()
		resp := postJSON(t, url+"/v1/verify", VerifyRequest{
			Spec:    spec,
			Options: VerifyRequestOptions{Compositional: true},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("verify %q: status %d", spec, resp.StatusCode)
		}
		out := decode[VerifyResponse](t, resp)
		if !out.Ok || out.Compositional == nil {
			t.Fatalf("verify %q: ok=%v compositional=%v\n%s", spec, out.Ok, out.Compositional, out.Summary)
		}
		return out
	}
}

// TestDeriveCompileOption asserts the FSM-compilation surface of
// /v1/derive: the compile option returns per-entity state/transition
// counts, distinguishes the cache key, records the /metrics aggregate
// exactly once, and a cache hit does not re-count.
func TestDeriveCompileOption(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Plain derive first: compile must not share its cache entry.
	postJSON(t, ts.URL+"/v1/derive", DeriveRequest{Spec: validSpec}).Body.Close()
	out := decode[DeriveResponse](t, postJSON(t, ts.URL+"/v1/derive", DeriveRequest{
		Spec: validSpec, Options: DeriveRequestOptions{Compile: true},
	}))
	if out.Cached {
		t.Error("compile request served the non-compile cache entry")
	}
	if out.Compile == nil {
		t.Fatal("compile requested but response carries no report")
	}
	rep := out.Compile
	if rep.Compiled != len(out.Places) || rep.Fallback != 0 {
		t.Fatalf("compile report = %+v, want all %d entities compiled", rep, len(out.Places))
	}
	for _, e := range rep.Entities {
		if !e.Compiled || e.States == 0 || e.Transitions == 0 || e.MinStates == 0 {
			t.Errorf("entity %d report %+v, want nonzero table sizes", e.Place, e)
		}
		if e.MinStates > e.States || e.MinTransitions > e.Transitions {
			t.Errorf("entity %d minimized larger than exact: %+v", e.Place, e)
		}
	}

	// Repeat (cache hit) and then snapshot the aggregate.
	again := decode[DeriveResponse](t, postJSON(t, ts.URL+"/v1/derive", DeriveRequest{
		Spec: validSpec, Options: DeriveRequestOptions{Compile: true},
	}))
	if !again.Cached || again.Compile == nil {
		t.Errorf("repeat compile request: cached=%t report=%v", again.Cached, again.Compile)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page := decode[MetricsPage](t, resp)
	cm := page.Compile
	if cm.Requests != 1 {
		t.Errorf("aggregate compile requests = %d, want 1 (cache hit must not re-count)", cm.Requests)
	}
	if cm.CompiledEntities != uint64(rep.Compiled) || cm.InterpretedEntities != 0 {
		t.Errorf("aggregate %+v does not match report %+v", cm, rep)
	}
	if cm.States == 0 || cm.Transitions == 0 {
		t.Errorf("aggregate table sizes zero: %+v", cm)
	}
}

// TestDeriveCompileFallback asserts that an entity whose state space
// exceeds the cap is reported as a fallback (with the overflow reason), not
// an error, and counts as interpretedEntities in the /metrics aggregate.
func TestDeriveCompileFallback(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	src := "SPEC A WHERE PROC A = (a1; A >> b2; exit) [] (a1; b2; exit) END ENDSPEC"
	out := decode[DeriveResponse](t, postJSON(t, ts.URL+"/v1/derive", DeriveRequest{
		Spec: src, Options: DeriveRequestOptions{Compile: true, CompileMaxStates: 256},
	}))
	if out.Compile == nil {
		t.Fatal("compile requested but response carries no report")
	}
	rep := out.Compile
	if rep.Fallback == 0 {
		t.Fatalf("compile report = %+v, want fallbacks for unbounded entities", rep)
	}
	if rep.MaxStates != 256 {
		t.Errorf("report cap = %d, want 256", rep.MaxStates)
	}
	sawError := false
	for _, e := range rep.Entities {
		if !e.Compiled && e.Error != "" {
			sawError = true
		}
	}
	if !sawError {
		t.Errorf("no fallback entity carries an overflow reason: %+v", rep.Entities)
	}
	page := decode[MetricsPage](t, mustGet(t, ts.URL+"/metrics"))
	if page.Compile.InterpretedEntities != uint64(rep.Fallback) {
		t.Errorf("aggregate interpreted = %d, want %d", page.Compile.InterpretedEntities, rep.Fallback)
	}
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestVerifyParallelMatchesSerial(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	serial := decode[VerifyResponse](t, postJSON(t, ts.URL+"/v1/verify", VerifyRequest{
		Spec: validSpec, Options: VerifyRequestOptions{ObsDepth: 6},
	}))
	par := decode[VerifyResponse](t, postJSON(t, ts.URL+"/v1/verify", VerifyRequest{
		Spec: validSpec, Options: VerifyRequestOptions{ObsDepth: 6, Parallel: true, Workers: 4},
	}))
	if par.Cached {
		t.Error("parallel options shared the serial cache entry")
	}
	if serial.Ok != par.Ok || serial.ComposedStates != par.ComposedStates {
		t.Errorf("serial %+v vs parallel %+v", serial, par)
	}
}

func TestVerifyAsyncJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/verify?async=1", VerifyRequest{
		Spec: validSpec, Options: VerifyRequestOptions{ObsDepth: 6},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202", resp.StatusCode)
	}
	acc := decode[JobAccepted](t, resp)
	if acc.JobID == "" || acc.Poll != "/v1/jobs/"+acc.JobID {
		t.Fatalf("accepted = %+v", acc)
	}
	job := pollJob(t, ts.URL, acc.JobID, 10*time.Second)
	if job.State != JobDone {
		t.Fatalf("job = %+v", job)
	}
	// The result round-trips through JSON as a map; spot-check the verdict.
	res, ok := job.Result.(map[string]any)
	if !ok || res["ok"] != true {
		t.Errorf("job result = %#v", job.Result)
	}
}

func pollJob(t *testing.T, base, id string, timeout time.Duration) Job {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		job := decode[Job](t, resp)
		if job.State == JobDone || job.State == JobFailed {
			return job
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, job.State, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestVerifyAsyncFailedJobReportsError(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Valid service whose *derivation* fails under the 1986 dialect
	// restriction (process instantiation is not in the 1986 subset), so the
	// failure happens inside the job.
	acc := decode[JobAccepted](t, postJSON(t, ts.URL+"/v1/verify?async=1", VerifyRequest{
		Spec:    "SPEC A WHERE PROC A = a1; b2; A [] c1; exit END ENDSPEC",
		Options: VerifyRequestOptions{DeriveRequestOptions: DeriveRequestOptions{Dialect1986: true}},
	}))
	job := pollJob(t, ts.URL, acc.JobID, 10*time.Second)
	if job.State != JobFailed || job.Error == "" {
		t.Errorf("job = %+v, want failed with error", job)
	}
}

func TestJobNotFound(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status %d", resp.StatusCode)
	}
}

func TestExploreEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/explore", ExploreRequest{Spec: validSpec, ObsDepth: 4, Traces: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	out := decode[ExploreResponse](t, resp)
	if out.States < 3 || out.Transitions < 2 {
		t.Errorf("explore report = %+v", out)
	}
	found := false
	for _, tr := range out.Traces {
		if strings.Contains(tr, "a1") && strings.Contains(tr, "b2") {
			found = true
		}
	}
	if !found {
		t.Errorf("traces %v missing a1..b2", out.Traces)
	}
}

func TestExploreAcceptsNonServiceSpecs(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Violates R1, so /v1/derive rejects it — but it is a perfectly
	// explorable behaviour expression.
	resp := postJSON(t, ts.URL+"/v1/explore", ExploreRequest{Spec: r1ViolationSpec, ObsDepth: 4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out := decode[ExploreResponse](t, resp); out.States == 0 {
		t.Errorf("report = %+v", out)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	out := decode[Health](t, resp)
	if out.Status != "ok" || out.Version == "" {
		t.Errorf("health = %+v", out)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postJSON(t, ts.URL+"/v1/derive", DeriveRequest{Spec: validSpec}).Body.Close()
	postJSON(t, ts.URL+"/v1/derive", DeriveRequest{Spec: validSpec}).Body.Close()
	postJSON(t, ts.URL+"/v1/derive", DeriveRequest{Spec: "bogus"}).Body.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page := decode[MetricsPage](t, resp)
	ep := page.Endpoints["derive"]
	if ep.Requests != 3 || ep.Errors != 1 || ep.InFlight != 0 {
		t.Errorf("derive endpoint stats = %+v", ep)
	}
	if page.Cache.Misses != 1 || page.Cache.Hits != 1 {
		t.Errorf("cache stats = %+v", page.Cache)
	}
	if page.Pools["derive"].Capacity < 1 || page.Pools["verify"].Capacity < 1 {
		t.Errorf("pool stats = %+v", page.Pools)
	}
}

// TestQueueDeadlineReturns503 exhausts the single-slot derive pool with a
// computation parked in the PreCompute hook (which runs while holding the
// slot); a second, distinct spec then cannot get a worker within the sync
// deadline and must be answered 503, with the timeout counted on the pool.
func TestQueueDeadlineReturns503(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	var first atomic.Bool
	s, ts := newTestServer(t, Config{
		DeriveWorkers: 1,
		SyncDeadline:  100 * time.Millisecond,
		PreCompute: func(kind, key string) {
			if first.CompareAndSwap(false, true) {
				<-block
			}
		},
	})
	go func() {
		// Raw post: the test may finish before this request completes.
		b, _ := json.Marshal(DeriveRequest{Spec: validSpec})
		resp, err := http.Post(ts.URL+"/v1/derive", "application/json", bytes.NewReader(b))
		if err == nil {
			resp.Body.Close()
		}
	}()
	for s.derivePool.Stats().InUse == 0 {
		time.Sleep(time.Millisecond)
	}
	resp := postJSON(t, ts.URL+"/v1/derive", DeriveRequest{Spec: "SPEC a1; c2; exit ENDSPEC"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	out := decode[ErrorResponse](t, resp)
	if !strings.Contains(out.Error, "deadline") {
		t.Errorf("error = %q", out.Error)
	}
	if s.derivePool.Stats().Timeouts == 0 {
		t.Error("pool did not count the queue timeout")
	}
}
