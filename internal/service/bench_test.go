package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// The server benchmarks measure the compile derive path, cold and cached,
// end to end through httptest (real HTTP, JSON marshalling included); the
// plain derive and verify paths are the benchmark's daemon-mix workload.
// Run them with `make bench`.

// benchSpec encodes n into event names using letters only (trailing digits
// would change the place), yielding arbitrarily many distinct specs.
func benchSpec(n int) string {
	name := "ev"
	for v := n; ; v = v / 26 {
		name += string(rune('a' + v%26))
		if v < 26 {
			break
		}
	}
	return fmt.Sprintf("SPEC %s1; %s2; exit ENDSPEC", name, name)
}

func benchPost(b *testing.B, client *http.Client, url string, body any) *http.Response {
	b.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		b.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		b.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %d", resp.StatusCode)
	}
	return resp
}

func drain(b *testing.B, resp *http.Response) {
	b.Helper()
	var sink json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&sink); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
}

// BenchmarkServerDeriveCompileCold posts a distinct spec on every iteration
// with the compile option on: every request misses the cache and runs
// parse + derive + FSM compilation of both entities. The entities/s metric
// is the compiled-path throughput in machines produced.
func BenchmarkServerDeriveCompileCold(b *testing.B) {
	ts := httptest.NewServer(New(Config{CacheEntries: 1 << 20}))
	defer ts.Close()
	opts := DeriveRequestOptions{Compile: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drain(b, benchPost(b, ts.Client(), ts.URL+"/v1/derive", DeriveRequest{Spec: benchSpec(i), Options: opts}))
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	b.ReportMetric(float64(2*b.N)/b.Elapsed().Seconds(), "entities/s")
}

// BenchmarkServerDeriveCompileCached posts the same compile-enabled request
// on every iteration: after the first, the fully compiled response (tables
// and counts included) is served from the content-addressed cache.
func BenchmarkServerDeriveCompileCached(b *testing.B) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	spec := benchSpec(0)
	opts := DeriveRequestOptions{Compile: true}
	drain(b, benchPost(b, ts.Client(), ts.URL+"/v1/derive", DeriveRequest{Spec: spec, Options: opts})) // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drain(b, benchPost(b, ts.Client(), ts.URL+"/v1/derive", DeriveRequest{Spec: spec, Options: opts}))
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}
