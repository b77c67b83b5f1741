package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/cli"
)

func TestBadFlagExitsUsage(t *testing.T) {
	for _, args := range [][]string{{"-bogus"}, {"-coordinator"}, {"-grace", "0s"}} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb, nil); code != cli.ExitUsage {
			t.Errorf("%v: exit code %d, want %d", args, code, cli.ExitUsage)
		}
	}
}

func TestUnexpectedArgumentExitsUsage(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"spec.spec"}, &out, &errb, nil); code != cli.ExitUsage {
		t.Errorf("exit code %d, want %d", code, cli.ExitUsage)
	}
	if !strings.Contains(errb.String(), "unexpected argument") {
		t.Errorf("stderr = %q", errb.String())
	}
}

func TestBadAddressExitsFail(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-addr", "256.256.256.256:http"}, &out, &errb, nil); code != cli.ExitFail {
		t.Errorf("exit code %d, want %d", code, cli.ExitFail)
	}
}

// TestDaemonEndToEnd boots the real daemon on an ephemeral port, drives a
// derive request and the health/metrics endpoints over real TCP, and shuts
// it down cleanly.
func TestDaemonEndToEnd(t *testing.T) {
	ready := make(chan serverHandle, 1)
	var out, errb bytes.Buffer
	code := make(chan int, 1)
	go func() { code <- run([]string{"-addr", "127.0.0.1:0", "-deadline", "10s"}, &out, &errb, ready) }()

	var h serverHandle
	select {
	case h = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon did not come up; stderr: %s", errb.String())
	}
	base := "http://" + h.Addr

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	}

	body, _ := json.Marshal(map[string]any{"spec": "SPEC a1; b2; exit ENDSPEC"})
	resp, err = http.Post(base+"/v1/derive", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var derived struct {
		Entities map[string]string `json:"entities"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&derived); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(derived.Entities) != 2 {
		t.Errorf("entities = %v", derived.Entities)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var page struct {
		Cache struct {
			Misses uint64 `json:"misses"`
		} `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if page.Cache.Misses != 1 {
		t.Errorf("cache misses = %d, want 1", page.Cache.Misses)
	}

	close(h.Stop)
	select {
	case c := <-code:
		if c != cli.ExitOK {
			t.Errorf("exit code %d; stderr: %s", c, errb.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	if !strings.Contains(out.String(), "listening on") {
		t.Errorf("stdout = %q", out.String())
	}
}

// blockingHandler parks requests until released, flagging arrival.
type blockingHandler struct {
	arrived chan struct{}
	release chan struct{}
}

func (h *blockingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.arrived <- struct{}{}
	<-h.release
	io.WriteString(w, "drained\n") //nolint:errcheck
}

// TestServeUntilDrainsInFlight pins the graceful-shutdown contract: a
// request in flight when stop closes still completes, and serveUntil only
// returns once it has.
func TestServeUntilDrainsInFlight(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := &blockingHandler{arrived: make(chan struct{}, 1), release: make(chan struct{})}
	stop := make(chan struct{})
	served := make(chan error, 1)
	go func() { served <- serveUntil(ln, h, stop, io.Discard, 10*time.Second) }()

	body := make(chan string, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String())
		if err != nil {
			body <- "error: " + err.Error()
			return
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		body <- string(b)
	}()

	<-h.arrived
	close(stop)
	select {
	case err := <-served:
		t.Fatalf("serveUntil returned %v with a request still in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(h.release)
	if err := <-served; err != nil {
		t.Fatalf("serveUntil: %v", err)
	}
	if got := <-body; got != "drained\n" {
		t.Fatalf("in-flight request got %q", got)
	}
}

// TestServeUntilGraceExceeded pins the bound: a handler that never returns
// cannot hold shutdown past the grace period, and the overrun is an error.
func TestServeUntilGraceExceeded(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := &blockingHandler{arrived: make(chan struct{}, 1), release: make(chan struct{})}
	defer close(h.release)
	stop := make(chan struct{})
	served := make(chan error, 1)
	go func() { served <- serveUntil(ln, h, stop, io.Discard, 50*time.Millisecond) }()
	go http.Get("http://" + ln.Addr().String()) //nolint:errcheck
	<-h.arrived
	close(stop)
	select {
	case err := <-served:
		if err == nil || !strings.Contains(err.Error(), "grace") {
			t.Fatalf("serveUntil = %v, want grace-period error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serveUntil hung past the grace period")
	}
}
