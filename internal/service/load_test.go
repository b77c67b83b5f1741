package service

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// distinctSpec builds the i-th distinct two-place service of the load mix.
// The event *names* vary (letters only — trailing digits select the place).
func distinctSpec(i int) string {
	c := rune('a' + i%26)
	return fmt.Sprintf("SPEC ev%c1; ev%c2; exit ENDSPEC", c, c)
}

// TestLoadConcurrentClients is the PR's acceptance load test: at least 32
// concurrent clients post a mix of identical and distinct specs across all
// three computation endpoints plus async verify jobs, under -race. It
// asserts:
//
//   - identical in-flight requests collapse to one derivation
//     (deterministically: the first computation is parked in the
//     PreCompute hook until every other client is waiting on it);
//   - cached hits skip recomputation (cache misses == distinct
//     computation keys, exactly);
//   - /metrics request counters reconcile with the client-observed totals
//     per endpoint;
//   - async verify jobs complete and are retrievable by id.
func TestLoadConcurrentClients(t *testing.T) {
	const (
		clients       = 40
		distinctSpecs = 8
	)
	sharedSpec := "SPEC shared1; shared2; exit ENDSPEC"

	park := make(chan struct{})
	var first atomic.Bool
	s, ts := newTestServer(t, Config{
		PreCompute: func(kind, key string) {
			if first.CompareAndSwap(false, true) {
				<-park
			}
		},
	})

	// --- Phase 1: deterministic singleflight collapse --------------------
	// Every client posts the *same* spec. The first computation parks in
	// the hook (holding a worker slot); the release goroutine waits until
	// all other clients are registered as shared waiters, which proves the
	// collapse, then unparks it.
	var phase1 sync.WaitGroup
	for i := 0; i < clients; i++ {
		phase1.Add(1)
		go func() {
			defer phase1.Done()
			resp := postJSON(t, ts.URL+"/v1/derive", DeriveRequest{Spec: sharedSpec})
			out := decode[DeriveResponse](t, resp)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("phase 1 status %d", resp.StatusCode)
			}
			if len(out.Entities) != 2 {
				t.Errorf("phase 1 entities = %v", out.Entities)
			}
		}()
	}
	for s.CacheStats().SharedWaits < clients-1 {
		time.Sleep(time.Millisecond)
	}
	close(park)
	phase1.Wait()
	st := s.CacheStats()
	if st.Misses != 1 {
		t.Fatalf("phase 1: %d derivations for %d identical concurrent requests, want 1 (stats %+v)",
			st.Misses, clients, st)
	}
	if st.SharedWaits != clients-1 {
		t.Fatalf("phase 1: sharedWaits = %d, want %d", st.SharedWaits, clients-1)
	}

	// --- Phase 2: mixed load ---------------------------------------------
	// Each client: two derives of the (now cached) shared spec, one derive
	// of a distinct spec, one sync verify, one explore, one async verify
	// (same key as the sync verify) polled to completion.
	var (
		derivePosts, syncVerifyPosts, asyncVerifyPosts, explorePosts, jobPolls atomic.Uint64
		wg                                                                     sync.WaitGroup
	)
	vopts := VerifyRequestOptions{ObsDepth: 4}
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := distinctSpec(i % distinctSpecs)

			for _, sp := range []string{sharedSpec, sharedSpec, spec} {
				resp := postJSON(t, ts.URL+"/v1/derive", DeriveRequest{Spec: sp})
				derivePosts.Add(1)
				if decode[DeriveResponse](t, resp); resp.StatusCode != http.StatusOK {
					t.Errorf("derive status %d", resp.StatusCode)
				}
			}

			// One compile-enabled derive: a distinct computation key (the
			// compile flag is part of the fingerprint) whose response must
			// carry a fully compiled two-entity fleet.
			resp := postJSON(t, ts.URL+"/v1/derive", DeriveRequest{
				Spec: spec, Options: DeriveRequestOptions{Compile: true},
			})
			derivePosts.Add(1)
			if out := decode[DeriveResponse](t, resp); resp.StatusCode != http.StatusOK ||
				out.Compile == nil || out.Compile.Compiled != 2 || out.Compile.Fallback != 0 {
				t.Errorf("compile derive status %d compile %+v", resp.StatusCode, out.Compile)
			}

			resp = postJSON(t, ts.URL+"/v1/verify", VerifyRequest{Spec: spec, Options: vopts})
			syncVerifyPosts.Add(1)
			if out := decode[VerifyResponse](t, resp); resp.StatusCode != http.StatusOK || !out.Ok {
				t.Errorf("verify status %d", resp.StatusCode)
			}

			resp = postJSON(t, ts.URL+"/v1/explore", ExploreRequest{Spec: spec, ObsDepth: 4})
			explorePosts.Add(1)
			if out := decode[ExploreResponse](t, resp); resp.StatusCode != http.StatusOK || out.States == 0 {
				t.Errorf("explore status %d", resp.StatusCode)
			}

			resp = postJSON(t, ts.URL+"/v1/verify?async=1", VerifyRequest{Spec: spec, Options: vopts})
			asyncVerifyPosts.Add(1)
			acc := decode[JobAccepted](t, resp)
			if resp.StatusCode != http.StatusAccepted || acc.JobID == "" {
				t.Errorf("async accept status %d body %+v", resp.StatusCode, acc)
				return
			}
			deadline := time.Now().Add(30 * time.Second)
			for {
				jresp, err := http.Get(ts.URL + "/v1/jobs/" + acc.JobID)
				if err != nil {
					t.Error(err)
					return
				}
				jobPolls.Add(1)
				job := decode[Job](t, jresp)
				if job.State == JobDone {
					res, ok := job.Result.(map[string]any)
					if !ok || res["ok"] != true {
						t.Errorf("job %s result = %#v", acc.JobID, job.Result)
					}
					break
				}
				if job.State == JobFailed {
					t.Errorf("job %s failed: %s", acc.JobID, job.Error)
					break
				}
				if time.Now().After(deadline) {
					t.Errorf("job %s timed out in state %s", acc.JobID, job.State)
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
		}(i)
	}
	wg.Wait()

	// --- Reconciliation ---------------------------------------------------
	// Distinct computation keys over the whole test: 1 shared derive +
	// 8 distinct derives + 8 compile-enabled derives (the compile flag is
	// part of the key) + 8 verifies (async shares the sync key) + 8 explores.
	wantKeys := uint64(1 + distinctSpecs + distinctSpecs + distinctSpecs + distinctSpecs)
	st = s.CacheStats()
	if st.Misses != wantKeys {
		t.Errorf("computations = %d, want %d (every repeat must hit cache or singleflight); stats %+v",
			st.Misses, wantKeys, st)
	}
	if st.Evictions != 0 {
		t.Errorf("unexpected evictions: %+v", st)
	}
	// Every cache lookup is one of hit/miss/shared: lookups happen for
	// each derive/sync-verify/explore POST (phase 1 and 2) and for each
	// async job execution (the async POST itself only enqueues).
	asyncJobs := asyncVerifyPosts.Load()
	lookups := uint64(clients) /* phase 1 */ + derivePosts.Load() +
		syncVerifyPosts.Load() + explorePosts.Load() + asyncJobs
	if got := st.Hits + st.Misses + st.SharedWaits; got != lookups {
		t.Errorf("cache outcomes %d (hits %d + misses %d + shared %d) != lookups %d",
			got, st.Hits, st.Misses, st.SharedWaits, lookups)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page := decode[MetricsPage](t, resp)
	for _, c := range []struct {
		endpoint string
		want     uint64
	}{
		{"derive", uint64(clients) + derivePosts.Load()},
		{"verify", syncVerifyPosts.Load() + asyncVerifyPosts.Load()},
		{"explore", explorePosts.Load()},
		{"jobs", jobPolls.Load()},
	} {
		ep := page.Endpoints[c.endpoint]
		if ep.Requests != c.want {
			t.Errorf("/metrics %s.requests = %d, client-observed %d", c.endpoint, ep.Requests, c.want)
		}
		if ep.Errors != 0 {
			t.Errorf("/metrics %s.errors = %d, want 0", c.endpoint, ep.Errors)
		}
		if ep.InFlight != 0 {
			t.Errorf("/metrics %s.inFlight = %d, want 0", c.endpoint, ep.InFlight)
		}
	}
	js := page.Jobs
	if js.Created != asyncJobs || js.Finished != asyncJobs || js.Failed != 0 {
		t.Errorf("job stats = %+v, want %d clean completions", js, asyncJobs)
	}
	// Compile counters record computed requests only: one per distinct
	// compile key, two minimized entities each, no fallbacks.
	if cc := page.Compile; cc.Requests != distinctSpecs ||
		cc.CompiledEntities != 2*distinctSpecs || cc.InterpretedEntities != 0 {
		t.Errorf("compile counters = %+v, want %d requests / %d compiled entities",
			cc, distinctSpecs, 2*distinctSpecs)
	}
}
