// Command pgd is the protocol-derivation daemon: a resident HTTP service
// over the protoderive pipeline. Where pg/verify re-derive from scratch on
// every invocation, pgd keeps a content-addressed cache of finished
// derivations, verifications and explorations, collapses concurrent
// identical requests into one computation, and bounds concurrency with
// per-class worker pools. On SIGINT or SIGTERM it stops accepting
// connections and drains in-flight requests for at most the grace period.
//
// Usage:
//
//	pgd [flags]
//
// Flags:
//
//	-addr :8080         listen address
//	-cache 256          result-cache entries
//	-deadline 30s       synchronous request deadline (queueing included)
//	-job-deadline 10m   async job deadline
//	-job-ttl 10m        finished async jobs stay retrievable this long
//	-max-jobs 1024      async job population cap
//	-derive-workers 0   derive/explore pool size (0 = GOMAXPROCS)
//	-verify-workers 0   verify pool size (0 = GOMAXPROCS)
//	-grace 10s          shutdown drain deadline
//
// Endpoints: POST /v1/derive (set options.compile to also compile each
// entity to a minimized table-driven FSM and get per-entity state and
// transition counts), POST /v1/verify (add ?async=1 for a job; set
// options.compositional to minimize each entity LTS before composing,
// with per-entity artifacts recalled from the daemon's content-addressed
// cache, so re-verifying an edited spec rebuilds only the entities the
// edit changed), POST /v1/explore, GET /v1/jobs/{id},
// GET /v1/jobs/{id}/events (SSE progress stream), GET /healthz,
// GET /metrics (includes entity-artifact cache hit/miss counters,
// compositional reuse ratios and Go runtime gauges).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run parses flags, binds the listener and serves until a termination
// signal arrives. When ready is non-nil, the bound address is sent on it
// once the listener is up (the tests use this to talk to a live daemon on
// an ephemeral port) and the daemon also stops when ready's context-like
// companion channel stop is closed — see serveUntil.
func run(args []string, stdout, stderr io.Writer, ready chan<- serverHandle) int {
	fs := flag.NewFlagSet("pgd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address")
	cacheEntries := fs.Int("cache", 256, "result-cache entries")
	deadline := fs.Duration("deadline", 30*time.Second, "synchronous request deadline")
	jobDeadline := fs.Duration("job-deadline", 10*time.Minute, "async job deadline")
	jobTTL := fs.Duration("job-ttl", 10*time.Minute, "finished-job retention")
	maxJobs := fs.Int("max-jobs", 1024, "async job population cap")
	deriveWorkers := fs.Int("derive-workers", 0, "derive/explore pool size (0 = GOMAXPROCS)")
	verifyWorkers := fs.Int("verify-workers", 0, "verify pool size (0 = GOMAXPROCS)")
	grace := fs.Duration("grace", 10*time.Second, "shutdown drain deadline")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: pgd [flags]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "pgd: unexpected argument %q\n", fs.Arg(0))
		return cli.ExitUsage
	}
	if *grace <= 0 {
		fmt.Fprintln(stderr, "pgd: -grace must be positive")
		return cli.ExitUsage
	}

	handler := service.New(service.Config{
		DeriveWorkers: *deriveWorkers,
		VerifyWorkers: *verifyWorkers,
		CacheEntries:  *cacheEntries,
		SyncDeadline:  *deadline,
		JobDeadline:   *jobDeadline,
		JobTTL:        *jobTTL,
		MaxJobs:       *maxJobs,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "pgd:", err)
		return cli.ExitFail
	}
	fmt.Fprintf(stdout, "pgd: listening on %s\n", ln.Addr())

	stop := make(chan struct{})
	if ready != nil {
		ready <- serverHandle{Addr: ln.Addr().String(), Stop: stop}
	}
	if err := serveUntil(ln, handler, stop, stdout, *grace); err != nil {
		fmt.Fprintln(stderr, "pgd:", err)
		return cli.ExitFail
	}
	fmt.Fprintln(stdout, "pgd: bye")
	return cli.ExitOK
}

// serverHandle lets a test reach a running daemon and shut it down.
type serverHandle struct {
	Addr string
	Stop chan struct{}
}

// serveUntil serves on the listener until SIGINT/SIGTERM or a close of
// stop, then drains in-flight requests for at most grace. A drain that
// outlives the grace period force-closes the remaining connections and
// reports an error.
func serveUntil(ln net.Listener, handler http.Handler, stop <-chan struct{}, stdout io.Writer, grace time.Duration) error {
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	select {
	case err := <-errc:
		return err
	case <-sig:
		fmt.Fprintln(stdout, "pgd: shutting down")
	case <-stop:
	}
	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		srv.Close() //nolint:errcheck // already failing: cut the stragglers
		return fmt.Errorf("drain exceeded the %v grace period: %w", grace, err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
