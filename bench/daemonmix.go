package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/service"
)

// The daemon-mix workload is the pgd daemon under callers that each wait
// for their answer, as CI jobs and scripts do: a closed loop of two
// clients, one connection each, sending 70% derive and 30% verify. Half the
// requests repeat a 64-key working set of corpus requests (cache hits); the
// other half are fresh specs from a seeded template grid, renamed so each
// one misses the cache and, once the cache is full, evicts. Every fourth
// second one client first sends an uncacheable capped multiinstance verify
// with a 100 ms deadline; those requests are abandoned by design and left
// out of the latency and error counts, but their server CPU is not.
//
// The load runs in one-second segments. Between two segments both clients
// have their answers and the daemon is idle, and the host reference runs.
// An open loop at a fixed rate was tried first: at a fifth of capacity the
// vCPUs idle between requests, and the time to wake them, which other
// tenants of the host set, made its median spread by half from run to run.

const (
	// daemonConns is the number of clients, each with its own connection.
	daemonConns = 2
	// Verify bounds of the working set and the fresh specs.
	daemonObsDepth  = 4
	daemonMaxStates = 20000
	// daemonSegment is the length of one stretch of load.
	daemonSegment = time.Second
	// abandonEvery (in segments) and abandonDeadline shape the abandoned
	// work.
	abandonEvery    = 4
	abandonDeadline = 100 * time.Millisecond
	// abandonMaxStates caps the abandoned verify's product, as the fault
	// matrix caps its multi* cells: enough work to outlast the deadline
	// several times over, not so much that the daemon spends most of the
	// run on one CPU.
	abandonMaxStates = 4000
)

// daemonVerifySpecs are the working set's verified corpus specs: the
// theorem-covered ones whose product fits the verify bounds.
var daemonVerifySpecs = []string{"anbn", "barrier", "example5", "farm", "pipeline", "session", "transport"}

// deriveVariants are the working set's derive option sets, by key suffix.
var deriveVariants = []struct {
	suffix string
	opts   service.DeriveRequestOptions
}{
	{"", service.DeriveRequestOptions{}},
	{"+raw", service.DeriveRequestOptions{KeepRedundant: true}},
	{"+handshake", service.DeriveRequestOptions{InterruptHandshake: true}},
}

// request is one request of the workload.
type request struct {
	class string // "derive", "verify" or "abandon"
	kind  string // class and "/hit" (working set) or "/fresh"
	key   string // expectation key, for failure messages
	body  []byte
	// wantMessages is the expected static message count; wantOK the
	// expected verify verdict.
	wantMessages int
	wantOK       bool
}

func (r request) path() string {
	if r.class == "derive" {
		return "/v1/derive"
	}
	return "/v1/verify"
}

// workingSet builds the 64 repeated requests: every corpus spec derived
// under three option sets, and seven corpus specs verified at capacities 1
// and 2 and observable depths 3 and 4.
func workingSet(exp *expectations) (derives, verifies []request, err error) {
	for _, n := range corpusNames() {
		for _, v := range deriveVariants {
			key := n + v.suffix
			want, ok := exp.DeriveMessages[key]
			if !ok {
				return nil, nil, fmt.Errorf("expected.json has no derive count for %s", key)
			}
			body, _ := json.Marshal(service.DeriveRequest{Spec: corpusSource(n), Options: v.opts})
			derives = append(derives, request{class: "derive", kind: "derive/hit", key: key, body: body, wantMessages: want})
		}
	}
	for _, n := range daemonVerifySpecs {
		for _, chanCap := range []int{1, 2} {
			for _, obs := range []int{3, 4} {
				key := fmt.Sprintf("%s/cap%d/obs%d", n, chanCap, obs)
				want, ok := exp.DaemonVerify[key]
				if !ok {
					return nil, nil, fmt.Errorf("expected.json has no daemon verdict for %s", key)
				}
				body, _ := json.Marshal(service.VerifyRequest{Spec: corpusSource(n), Options: service.VerifyRequestOptions{
					ChannelCap: chanCap, ObsDepth: obs, MaxStates: daemonMaxStates,
				}})
				verifies = append(verifies, request{class: "verify", kind: "verify/hit", key: key, body: body,
					wantMessages: exp.DeriveMessages[n], wantOK: want})
			}
		}
	}
	return derives, verifies, nil
}

// deck deals the items of a fixed multiset in a seeded order, reshuffling
// whenever it runs out. Drawing inputs from decks rather than independently
// gives every run of a given length nearly the same mix, so a run's tail is
// not set by how many of the heaviest fresh verifies its seed happened to
// draw; the seed still decides the order and the names.
type deck[T any] struct {
	rng   *rand.Rand
	items []T
	next  int
}

func newDeck[T any](rng *rand.Rand, items []T) *deck[T] {
	return &deck[T]{rng: rng, items: slices.Clone(items), next: len(items)}
}

func (d *deck[T]) deal() T {
	if d.next == len(d.items) {
		d.rng.Shuffle(len(d.items), func(i, j int) { d.items[i], d.items[j] = d.items[j], d.items[i] })
		d.next = 0
	}
	d.next++
	return d.items[d.next-1]
}

// Request kinds, dealt 7:3 derive to verify and 1:1 working set to fresh.
const (
	hitDerive = iota
	hitVerify
	freshDerive
	freshVerify
)

var kindDeck = []int{
	hitDerive, hitDerive, hitDerive, hitDerive, hitDerive, hitDerive, hitDerive, hitVerify, hitVerify, hitVerify,
	freshDerive, freshDerive, freshDerive, freshDerive, freshDerive, freshDerive, freshDerive, freshVerify, freshVerify, freshVerify,
}

// freshVerifyCase is one fresh verify: a template cell at a capacity.
type freshVerifyCase struct {
	cell    freshCell
	chanCap int
}

// dealer deals the workload's requests, drawing on the working set and the
// fresh-spec grid; it is safe for concurrent use. The sequence it deals
// depends only on the seed; which client sends each request does not
// matter to the mix.
type dealer struct {
	mu                      sync.Mutex
	rng                     *rand.Rand
	exp                     *expectations
	kinds                   *deck[int]
	hitDerives, hitVerifies *deck[request]
	freshDerives            *deck[freshCell]
	freshVerifies           *deck[freshVerifyCase]
}

func newDealer(rng *rand.Rand, derives, verifies []request, exp *expectations) (*dealer, error) {
	grid := freshGrid()
	var cases []freshVerifyCase
	for _, c := range grid {
		if _, ok := exp.DeriveMessages[c.key()]; !ok {
			return nil, fmt.Errorf("expected.json has no derive count for %s", c.key())
		}
		cases = append(cases, freshVerifyCase{c, 1}, freshVerifyCase{c, 2})
	}
	return &dealer{
		rng: rng, exp: exp,
		kinds: newDeck(rng, kindDeck), hitDerives: newDeck(rng, derives), hitVerifies: newDeck(rng, verifies),
		freshDerives: newDeck(rng, grid), freshVerifies: newDeck(rng, cases),
	}, nil
}

// next deals the next request.
func (d *dealer) next() request {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch d.kinds.deal() {
	case hitDerive:
		return d.hitDerives.deal()
	case hitVerify:
		return d.hitVerifies.deal()
	case freshDerive:
		c := d.freshDerives.deal()
		r := request{class: "derive", kind: "derive/fresh", key: c.key(), wantMessages: d.exp.DeriveMessages[c.key()]}
		r.body, _ = json.Marshal(service.DeriveRequest{Spec: freshSpec(c, randomPrefix(d.rng))})
		return r
	}
	v := d.freshVerifies.deal()
	// Every fresh template is conformant at both capacities.
	r := request{class: "verify", kind: "verify/fresh", key: fmt.Sprintf("%s/cap%d", v.cell.key(), v.chanCap),
		wantMessages: d.exp.DeriveMessages[v.cell.key()], wantOK: true}
	r.body, _ = json.Marshal(service.VerifyRequest{Spec: freshSpec(v.cell, randomPrefix(d.rng)), Options: service.VerifyRequestOptions{
		ChannelCap: v.chanCap, ObsDepth: daemonObsDepth, MaxStates: daemonMaxStates,
	}})
	return r
}

// abandoned deals an abandoned-work request.
func (d *dealer) abandoned() request {
	d.mu.Lock()
	defer d.mu.Unlock()
	body, _ := json.Marshal(service.VerifyRequest{Spec: abandonSpec(randomPrefix(d.rng)), Options: service.VerifyRequestOptions{
		ChannelCap: 1, ObsDepth: daemonObsDepth, MaxStates: abandonMaxStates,
	}})
	return request{class: "abandon", key: "multiinstance", body: body}
}

// daemon is the service under test: a pgd process, or an in-process server
// when no binary is given.
type daemon struct {
	url  string
	pid  string // /proc entry of the serving process
	cmd  *exec.Cmd
	done chan struct{} // closed when the stdout drain ends
	srv  *httptest.Server
}

// startDaemon starts pgd on a loopback ephemeral port and waits until it
// answers /healthz.
func startDaemon(bin string, log io.Writer) (*daemon, error) {
	if bin == "" {
		srv := httptest.NewServer(service.New(service.Config{}))
		return &daemon{url: srv.URL, pid: "self", srv: srv}, nil
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-grace", "1s")
	cmd.Stderr = log
	// Should the benchmark die without stopping the daemon, the kernel
	// stops it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting pgd: %w", err)
	}
	d := &daemon{pid: strconv.Itoa(cmd.Process.Pid), cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "pgd: listening on "); ok {
				addr <- rest
			}
		}
	}()
	select {
	case a := <-addr:
		d.url = "http://" + a
	case <-d.done:
		d.stop()
		return nil, errors.New("pgd exited before listening")
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("pgd did not report a listen address within 30s")
	}
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := hc.Get(d.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("pgd not healthy within 30s: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop terminates the daemon and waits until it has exited.
func (d *daemon) stop() {
	if d.srv != nil {
		d.srv.Close()
		return
	}
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already exited is fine
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck
		<-d.done
	}
	d.cmd.Wait() //nolint:errcheck // a drain past the grace exits non-zero; nothing to do
}

// cpuMS is the serving process's user+system CPU time so far.
func (d *daemon) cpuMS() float64 {
	b, err := os.ReadFile("/proc/" + d.pid + "/stat")
	if err != nil {
		return 0
	}
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0
	}
	utime, _ := strconv.ParseFloat(f[11], 64)
	stime, _ := strconv.ParseFloat(f[12], 64)
	return (utime + stime) * 10 // USER_HZ = 100
}

func (d *daemon) metrics(client *http.Client) (service.MetricsPage, error) {
	var page service.MetricsPage
	resp, err := client.Get(d.url + "/metrics")
	if err != nil {
		return page, err
	}
	defer resp.Body.Close()
	return page, json.NewDecoder(resp.Body).Decode(&page)
}

// load is what drive measured.
type load struct {
	ops      []sample // every request (+Inf when it failed), abandoned ones left out
	segs     []sample // the segments of load
	sent     int      // requests sent, abandoned ones included
	answered int      // abandoned requests answered within their deadline
}

// drive keeps daemonConns clients busy in segments until the budget is
// spent, counting every request into o and running the host reference
// between segments. With a tracer each request gets a root span.
func drive(o *outcome, client *http.Client, base string, dl *dealer, budget time.Duration, tr *tracer) load {
	var (
		mu sync.Mutex
		l  load
	)
	start := time.Now()
	for seg := 0; time.Since(start) < budget; seg++ {
		segStart := time.Now()
		stop := segStart.Add(min(daemonSegment, budget-time.Since(start)))
		var wg sync.WaitGroup
		for c := 0; c < daemonConns; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if c == 0 && seg%abandonEvery == 0 {
					err := send(client, base, dl.abandoned())
					mu.Lock()
					l.sent++
					if err == nil {
						l.answered++
					}
					mu.Unlock()
				}
				for time.Now().Before(stop) {
					r := dl.next()
					root := tr.op("request")
					h := root.child("http." + r.class)
					t0 := time.Now()
					err := send(client, base, r)
					s := o.timed(r.kind, t0)
					h.end()
					root.end()
					mu.Lock()
					l.sent++
					o.attempted++
					if err != nil {
						o.fail("%v", err)
						s.ms = math.Inf(1)
					}
					l.ops = append(l.ops, s)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		l.segs = append(l.segs, o.timed("segment", segStart))
		o.host.keepUp(time.Since(segStart))
	}
	return l
}

// send performs one request and checks its response.
func send(client *http.Client, base string, r request) error {
	ctx := context.Background()
	if r.class == "abandon" {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, abandonDeadline)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+r.path(), bytes.NewReader(r.body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", r.class, r.key, resp.StatusCode, bytes.TrimSpace(body))
	}
	if r.class == "abandon" {
		return nil // answered within the deadline: nothing to check
	}
	var got struct {
		OK           bool `json:"ok"`
		MessageCount int  `json:"messageCount"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("%s %s: %w", r.class, r.key, err)
	}
	if got.MessageCount != r.wantMessages || (r.class == "verify" && got.OK != r.wantOK) {
		return fmt.Errorf("%s %s: ok=%v messages=%d, want ok=%v messages=%d",
			r.class, r.key, got.OK, got.MessageCount, r.wantOK, r.wantMessages)
	}
	return nil
}

func runDaemonMix(cfg config, exp *expectations) (*outcome, error) {
	o := newOutcome()
	tr := cfg.newTracer()
	derives, verifies, err := workingSet(exp)
	if err != nil {
		return nil, err
	}
	dl, err := newDealer(newRand(cfg.seed, streamRequests), derives, verifies, exp)
	if err != nil {
		return nil, err
	}
	client := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     daemonConns,
		MaxIdleConnsPerHost: daemonConns,
	}}
	defer client.CloseIdleConnections()

	// Setting up is booting the daemon until it is healthy and filling its
	// cache with the working set, one request at a time; every warm-up
	// response is checked like a measured one.
	d, err := setup(cfg, o, nil, func(*spanRef) (*daemon, error) {
		d, err := startDaemon(cfg.pgd, cfg.log)
		if err != nil {
			return nil, err
		}
		for _, r := range append(derives, verifies...) {
			o.attempted++
			if err := send(client, d.url, r); err != nil {
				o.fail("warm-up: %v", err)
			}
		}
		return d, nil
	}, func(d *daemon) {
		d.stop()
		client.CloseIdleConnections()
	})
	if err != nil {
		return nil, err
	}
	defer d.stop()

	// An untraced third, then a traced rest, when tracing.
	untraced := cfg.budget()
	if tr != nil {
		untraced /= 3
	}
	runtime.GC()
	plain := drive(o, client, d.url, dl, untraced, nil)
	o.ops, o.busy = plain.ops, plain.segs
	abandoned, answered := plain.sent-len(plain.ops), plain.answered
	if tr != nil {
		before, err := d.metrics(client)
		if err != nil {
			return nil, err
		}
		cpu0, self0 := d.cpuMS(), selfCPUMS()
		traced := drive(o, client, d.url, dl, cfg.budget()-untraced, tr)
		after, err := d.metrics(client)
		if err != nil {
			return nil, err
		}
		abandoned += traced.sent - len(traced.ops)
		answered += traced.answered
		serverMS, clientMS := d.cpuMS()-cpu0, selfCPUMS()-self0
		serviceDeltas(tr, before, after, serverMS, traced.sent)
		tr.gauge("loadgen.cpu_share", ratio(clientMS, clientMS+serverMS))
		// Medians, not means: an abandoned request stalls the daemon for a
		// while, and the two windows hold different numbers of them.
		o.finishTrace(tr, median(times(traced.ops))/median(times(o.ops)))
	}
	o.rssKB = readStatusKB(d.pid, "VmHWM")
	o.notes["connections"] = daemonConns
	o.notes["abandoned_requests"] = abandoned
	o.notes["abandoned_answered_in_time"] = answered
	return o, nil
}

// selfCPUMS is this process's user+system CPU time so far.
func selfCPUMS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
}

// serviceDeltas records the daemon's own counters over the traced window.
func serviceDeltas(tr *tracer, a, b service.MetricsPage, cpuMS float64, requests int) {
	for _, ep := range []string{"derive", "verify"} {
		ea, eb := a.Endpoints[ep], b.Endpoints[ep]
		tr.gauge("service.server_p50_ms."+ep, histogramMedianMS(eb.LatencyBucketsMS, ea.LatencyCounts, eb.LatencyCounts))
	}
	hits := float64(b.Cache.Hits - a.Cache.Hits)
	misses := float64(b.Cache.Misses - a.Cache.Misses)
	tr.gauge("service.cache_hits", hits)
	tr.gauge("service.cache_lookups", hits+misses)
	tr.gauge("service.evictions", float64(b.Cache.Evictions-a.Cache.Evictions))
	var timeouts float64
	for name, p := range b.Pools {
		timeouts += float64(p.Timeouts - a.Pools[name].Timeouts)
	}
	tr.gauge("service.pool_timeouts", timeouts)
	tr.gauge("service.cpu_ms", cpuMS)
	tr.gauge("service.requests", float64(requests))
	tr.gauge("service.gc_pause_ms", b.Runtime.GCPauseTotalMS-a.Runtime.GCPauseTotalMS)
	tr.gauge("service.heap_inuse_mb", float64(b.Runtime.HeapInuseBytes)/1e6)
}
