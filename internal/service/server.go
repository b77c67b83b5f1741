// Package service exposes the protocol-derivation pipeline as a resident
// HTTP service — the engine behind the pgd daemon. Where the one-shot CLI
// (pg derive, verify, explore) re-parses and re-derives from scratch on
// every invocation, the service keeps a content-addressed cache of finished
// results keyed by the SHA-256 of the *normalized* specification plus an
// option fingerprint, collapses concurrent identical requests into a
// single computation (singleflight), bounds concurrency with per-class
// worker pools (expensive verifications cannot starve cheap derivations),
// and runs explorations that exceed the synchronous deadline as async jobs
// with a TTL'd result store.
//
// The package layers strictly on the protoderive facade: no internal/core,
// internal/lotos or internal/lts imports. Everything it caches is
// immutable rendered output (strings and value structs), never live
// syntax trees — each computation parses and derives its own tree, so
// concurrent requests share nothing mutable.
//
// Endpoints:
//
//	POST /v1/derive          spec -> entity specs + attributes + complexity
//	                         (+ per-entity minimized sizes with "compile")
//	POST /v1/verify          spec -> derive + compose + equivalence verdict
//	POST /v1/verify?async=1  same, as an async job -> {"jobId": ...}
//	POST /v1/delta-verify    base digest + edited spec -> entity delta +
//	                         compositional verify reusing cached artifacts
//	POST /v1/explore         spec -> bounded LTS exploration report
//	GET  /v1/jobs/{id}       async job status/result
//	GET  /v1/jobs/{id}/events  job progress as server-sent events
//	GET  /healthz            liveness
//	GET  /metrics            JSON counters (requests, cache, pools, jobs,
//	                         Go runtime gauges)
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	protoderive "repro"
)

// Config tunes a Server. The zero value selects production defaults.
type Config struct {
	// DeriveWorkers bounds concurrent derivations/explorations
	// (0 = GOMAXPROCS).
	DeriveWorkers int
	// VerifyWorkers bounds concurrent verifications (0 = GOMAXPROCS).
	VerifyWorkers int
	// CacheEntries bounds the result cache (0 = 256 entries).
	CacheEntries int
	// SyncDeadline bounds a synchronous request end to end: queueing for a
	// worker slot and waiting on a shared in-flight computation count
	// against it (0 = 30s). A computation already running is not
	// interrupted — clients needing longer explorations use async jobs.
	SyncDeadline time.Duration
	// JobDeadline bounds an async job's queueing the same way (0 = 10m).
	JobDeadline time.Duration
	// JobTTL keeps finished jobs retrievable for this long (0 = 10m).
	JobTTL time.Duration
	// MaxJobs caps the job population (0 = 1024).
	MaxJobs int
	// MaxBodyBytes caps request bodies (0 = 1 MiB).
	MaxBodyBytes int64
	// ArtifactEntries bounds the content-addressed per-entity artifact
	// cache backing compositional and delta verification
	// (0 = protoderive.DefaultArtifactEntries).
	ArtifactEntries int
	// SpecIndexEntries bounds the digest -> normalized-spec index that
	// resolves delta-verify base references (0 = 4096).
	SpecIndexEntries int
	// SSEKeepalive is the comment-line heartbeat interval of the job event
	// stream (0 = 15s). Keepalives let proxies and clients distinguish an
	// idle stream from a dead one.
	SSEKeepalive time.Duration

	// PreCompute, when set, is invoked inside the computing call of every
	// cache miss, after a worker slot is acquired and before the
	// computation runs. Test instrumentation: the load test parks the
	// first computation here to prove that concurrent identical requests
	// pile onto one in-flight call, and the deadline test parks it to
	// exhaust the pool.
	PreCompute func(kind, key string)
}

func (c Config) withDefaults() Config {
	if c.SyncDeadline <= 0 {
		c.SyncDeadline = 30 * time.Second
	}
	if c.JobDeadline <= 0 {
		c.JobDeadline = 10 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.SSEKeepalive <= 0 {
		c.SSEKeepalive = 15 * time.Second
	}
	return c
}

// Server is the derivation service. It implements http.Handler.
type Server struct {
	cfg        Config
	cache      *Cache
	jobs       *JobStore
	metrics    *Metrics
	derivePool *Pool
	verifyPool *Pool
	// arts is the daemon-wide content-addressed cache of compiled entity
	// machines, attached to every protocol the daemon verifies or compiles;
	// specs resolves delta-verify base digests to normalized spec text.
	arts  *protoderive.ArtifactCache
	specs *specIndex
	mux   *http.ServeMux
	start time.Time
}

// New builds a Server from the configuration.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:        cfg,
		cache:      NewCache(cfg.CacheEntries),
		jobs:       NewJobStore(cfg.JobTTL, cfg.MaxJobs),
		metrics:    newMetrics(),
		derivePool: NewPool(cfg.DeriveWorkers),
		verifyPool: NewPool(cfg.VerifyWorkers),
		arts:       protoderive.NewArtifactCache(cfg.ArtifactEntries),
		specs:      newSpecIndex(cfg.SpecIndexEntries),
		mux:        http.NewServeMux(),
		start:      time.Now(),
	}
	s.mux.HandleFunc("POST /v1/derive", s.instrument("derive", s.handleDerive))
	s.mux.HandleFunc("POST /v1/verify", s.instrument("verify", s.handleVerify))
	s.mux.HandleFunc("POST /v1/delta-verify", s.instrument("deltaVerify", s.handleDeltaVerify))
	s.mux.HandleFunc("POST /v1/explore", s.instrument("explore", s.handleExplore))
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("jobs", s.handleJob))
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.instrument("jobEvents", s.handleJobEvents))
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// CacheStats exposes the cache counters (for tests and the metrics page).
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// JobStats exposes the job counters.
func (s *Server) JobStats() JobStats { return s.jobs.Stats() }

// ArtifactStats exposes the per-entity artifact cache counters.
func (s *Server) ArtifactStats() protoderive.ArtifactStats { return s.arts.Stats() }

// --- request / response types ----------------------------------------------

// DeriveRequestOptions mirrors protoderive.DeriveOptions on the wire, plus
// the FSM-compilation request.
type DeriveRequestOptions struct {
	KeepRedundant      bool `json:"keepRedundant,omitempty"`
	Dialect1986        bool `json:"dialect1986,omitempty"`
	InterruptHandshake bool `json:"interruptHandshake,omitempty"`
	// Compile additionally builds every derived entity machine's minimized
	// layer and reports per-entity state/transition counts.
	Compile bool `json:"compile,omitempty"`
	// CompileMaxStates caps each entity's explored state space (0 = the
	// fsm default). Entities over the cap are reported as fallbacks
	// (compile.fallback: their minimized layer overflows), not errors.
	CompileMaxStates int `json:"compileMaxStates,omitempty"`
}

func (o DeriveRequestOptions) facade() protoderive.DeriveOptions {
	return protoderive.DeriveOptions{
		KeepRedundant:      o.KeepRedundant,
		Dialect1986:        o.Dialect1986,
		InterruptHandshake: o.InterruptHandshake,
	}
}

func (o DeriveRequestOptions) fingerprint() string {
	return fmt.Sprintf("raw=%t d86=%t hs=%t compile=%t cms=%d",
		o.KeepRedundant, o.Dialect1986, o.InterruptHandshake, o.Compile, o.CompileMaxStates)
}

// DeriveRequest is the body of POST /v1/derive.
type DeriveRequest struct {
	Spec    string               `json:"spec"`
	Options DeriveRequestOptions `json:"options"`
}

// DeriveResponse is the body of a successful derivation.
type DeriveResponse struct {
	// Cached reports that the response was answered without running a new
	// derivation (stored entry or shared in-flight computation).
	Cached bool `json:"cached"`
	// Places lists the service access points.
	Places []int `json:"places"`
	// Entities maps each place (as a decimal string: JSON object keys) to
	// its derived protocol entity specification text.
	Entities map[string]string `json:"entities"`
	// Attributes is the node numbering and SP/EP/AP attribute table.
	Attributes string `json:"attributes"`
	// MessageCount is the static message complexity.
	MessageCount int `json:"messageCount"`
	// Complexity is the per-operator Section-4.3 breakdown.
	Complexity protoderive.Complexity `json:"complexity"`
	// Compile carries the per-entity minimized-layer report when the
	// request asked for it.
	Compile *protoderive.CompileReport `json:"compile,omitempty"`
}

// VerifyRequestOptions are the wire options of POST /v1/verify: the
// derivation options plus the verification bounds.
type VerifyRequestOptions struct {
	DeriveRequestOptions
	ChannelCap int  `json:"channelCap,omitempty"`
	ObsDepth   int  `json:"obsDepth,omitempty"`
	MaxStates  int  `json:"maxStates,omitempty"`
	Parallel   bool `json:"parallel,omitempty"`
	Workers    int  `json:"workers,omitempty"`
	// Faults lists medium fault models to additionally verify under
	// ("loss", "dup", "reorder", "+"-combinations). The response then
	// carries a fault matrix with one cell per model, each failed cell
	// with its shortest replayable counterexample.
	Faults []string `json:"faults,omitempty"`
	// TraceDiffLimit caps the diagnostic example traces per side on a
	// failed trace comparison (0 = default 5).
	TraceDiffLimit int `json:"traceDiffLimit,omitempty"`
	// Compositional verifies quotient-before-compose: each entity LTS is
	// minimized before the product is built, with per-entity artifacts
	// recalled from the daemon's shared content-addressed cache. Verdicts
	// match the monolithic path.
	Compositional bool `json:"compositional,omitempty"`
	// Reductions names the product exploration's reduction set ("default",
	// "none", "all", or "+"-joined por/symmetry/spill). Every set is
	// verdict-preserving, so responses for different sets agree — but they
	// are cached separately (the set is part of the option fingerprint)
	// because the reported statistics and state counts differ.
	Reductions string `json:"reductions,omitempty"`
	// SpillBudget bounds the in-memory visited index (bytes) when the
	// reduction set includes "spill" (0 = the exploration default).
	SpillBudget int64 `json:"spillBudget,omitempty"`
}

// faultModels parses and deduplicates the requested fault models.
func (o VerifyRequestOptions) faultModels() ([]protoderive.FaultModel, error) {
	return protoderive.ParseFaultModels(strings.Join(o.Faults, ","))
}

// faultFingerprint renders the requested fault models canonically, so
// spelling variants ("dup" vs "duplication") and duplicates share a cache
// key while distinct fault configurations never collide. Unparseable input
// is fingerprinted verbatim (the request fails validation anyway).
func (o VerifyRequestOptions) faultFingerprint() string {
	models, err := o.faultModels()
	if err != nil {
		return strings.Join(o.Faults, ",")
	}
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.String()
	}
	return strings.Join(names, ",")
}

// reductionFingerprint renders the requested reduction set canonically, so
// spelling variants ("sym" vs "symmetry", reordered tokens) share a cache key
// while distinct sets never collide. Unparseable input is fingerprinted
// verbatim (the request fails validation anyway).
func (o VerifyRequestOptions) reductionFingerprint() string {
	name, err := protoderive.CanonicalReductions(o.Reductions)
	if err != nil {
		return o.Reductions
	}
	return name
}

func (o VerifyRequestOptions) fingerprint() string {
	return fmt.Sprintf("%s cap=%d obs=%d max=%d par=%t w=%d diff=%d comp=%t faults=%s red=%s spill=%d",
		o.DeriveRequestOptions.fingerprint(), o.ChannelCap, o.ObsDepth, o.MaxStates, o.Parallel, o.Workers,
		o.TraceDiffLimit, o.Compositional, o.faultFingerprint(), o.reductionFingerprint(), o.SpillBudget)
}

// VerifyRequest is the body of POST /v1/verify.
type VerifyRequest struct {
	Spec    string               `json:"spec"`
	Options VerifyRequestOptions `json:"options"`
}

// VerifyResponse is the body of a successful verification.
type VerifyResponse struct {
	Cached         bool   `json:"cached"`
	Ok             bool   `json:"ok"`
	Complete       bool   `json:"complete"`
	WeakBisimilar  bool   `json:"weakBisimilar"`
	TracesEqual    bool   `json:"tracesEqual"`
	ObsDepth       int    `json:"obsDepth"`
	Deadlocks      int    `json:"deadlocks"`
	ServiceStates  int    `json:"serviceStates"`
	ComposedStates int    `json:"composedStates"`
	MessageCount   int    `json:"messageCount"`
	Summary        string `json:"summary"`
	// SpecDigest is the content address of the normalized specification —
	// pass it as "base" to /v1/delta-verify after editing the spec.
	SpecDigest string `json:"specDigest"`
	// Witness is the shortest replayable counterexample when the
	// reliable-medium verification fails.
	Witness *protoderive.Witness `json:"witness,omitempty"`
	// FaultMatrix holds one cell per requested fault model (in canonical,
	// deduplicated order), each failed cell with its counterexample.
	FaultMatrix []FaultMatrixCell `json:"faultMatrix,omitempty"`
	// Equiv carries the equivalence engine's work counters for this check
	// (absent when exploration truncated and the bisimulation was skipped).
	Equiv *protoderive.EquivStats `json:"equiv,omitempty"`
	// Compositional reports the quotient-before-compose pipeline of the
	// reliable-medium check (entity quotient sizes, per-phase times,
	// artifact reuse, fallback reason). Present only for compositional
	// verifications.
	Compositional *protoderive.CompositionalReport `json:"compositional,omitempty"`
	// Reduction reports the state-space reductions the reliable-medium
	// product exploration applied (symmetry orbits collapsed, ample-set
	// hits, visited-index runs spilled).
	Reduction *protoderive.ReductionReport `json:"reduction,omitempty"`
}

// FaultMatrixCell is one fault-matrix entry of a verify response.
type FaultMatrixCell struct {
	Faults      string               `json:"faults"`
	Ok          bool                 `json:"ok"`
	Complete    bool                 `json:"complete"`
	TracesEqual bool                 `json:"tracesEqual"`
	Deadlocks   int                  `json:"deadlocks"`
	Summary     string               `json:"summary"`
	Witness     *protoderive.Witness `json:"witness,omitempty"`
}

// JobAccepted is the 202 body of POST /v1/verify?async=1.
type JobAccepted struct {
	JobID string `json:"jobId"`
	State string `json:"state"`
	Poll  string `json:"poll"`
}

// ExploreRequest is the body of POST /v1/explore. Unlike derive/verify it
// accepts any grammatical specification, not only valid services.
type ExploreRequest struct {
	Spec      string `json:"spec"`
	ObsDepth  int    `json:"obsDepth,omitempty"`
	MaxStates int    `json:"maxStates,omitempty"`
	Traces    bool   `json:"traces,omitempty"`
}

// ExploreResponse is the body of a successful exploration.
type ExploreResponse struct {
	Cached bool `json:"cached"`
	protoderive.ExploreReport
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
	// Line and Col locate spec errors in the submitted source (1-based;
	// absent when the failure has no position).
	Line int `json:"line,omitempty"`
	Col  int `json:"col,omitempty"`
	// Rule names the violated service restriction (R1/R2/R3/APF), when
	// that is what failed.
	Rule string `json:"rule,omitempty"`
}

// Health is the body of GET /healthz.
type Health struct {
	Status        string  `json:"status"`
	Version       string  `json:"version"`
	UptimeSeconds float64 `json:"uptimeSeconds"`
}

// MetricsPage is the body of GET /metrics.
type MetricsPage struct {
	MetricsSnapshot
	Cache CacheStats           `json:"cache"`
	Pools map[string]PoolStats `json:"pools"`
	Jobs  JobStats             `json:"jobs"`
	// Artifacts counts the content-addressed per-entity artifact cache's
	// entries and lookup hit/miss totals (compiled entity machines shared
	// across specs, fault models, delta verifications and compiles).
	Artifacts protoderive.ArtifactStats `json:"artifacts"`
	// Runtime samples the Go runtime's health gauges at scrape time.
	Runtime RuntimeStats `json:"runtime"`
}

// --- plumbing ---------------------------------------------------------------

// instrument wraps a handler with the per-endpoint metrics bookkeeping.
func (s *Server) instrument(name string, h func(http.ResponseWriter, *http.Request) int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		done := s.metrics.Begin(name)
		status := h(w, r)
		done(status >= 400)
	}
}

func writeJSON(w http.ResponseWriter, status int, body any) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(body) //nolint:errcheck // late write failures are the client's problem
	return status
}

// badRequestError marks malformed request bodies (as opposed to internal
// failures) for status mapping.
type badRequestError struct{ err error }

func (e badRequestError) Error() string { return e.err.Error() }
func (e badRequestError) Unwrap() error { return e.err }

// writeError maps an error to a status and a structured body: spec errors
// carry their position and rule, deadline expiry maps to 503 (the request
// never got a worker slot in time — retry or go async).
func writeError(w http.ResponseWriter, err error) int {
	var se *protoderive.SpecError
	if errors.As(err, &se) {
		return writeJSON(w, http.StatusBadRequest, ErrorResponse{
			Error: se.Error(), Line: se.Line, Col: se.Col, Rule: se.Rule,
		})
	}
	var bre badRequestError
	if errors.As(err, &bre) {
		return writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{
			Error: "deadline exceeded while queued; retry, raise the deadline, or use async=1",
		})
	}
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return writeJSON(w, http.StatusRequestEntityTooLarge, ErrorResponse{Error: err.Error()})
	}
	return writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
}

// decodeBody decodes a JSON request body, bounded and strict.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, into any) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return err
		}
		return badRequestError{fmt.Errorf("bad request body: %w", err)}
	}
	return nil
}

// compute runs fn under the given pool with singleflight/cache collapsing.
func (s *Server) compute(ctx context.Context, pool *Pool, kind, key string, fn func() (any, error)) (any, Outcome, error) {
	return s.cache.Do(ctx, key, func() (any, error) {
		if err := pool.Acquire(ctx); err != nil {
			return nil, err
		}
		defer pool.Release()
		if s.cfg.PreCompute != nil {
			s.cfg.PreCompute(kind, key)
		}
		return fn()
	})
}

// --- handlers ---------------------------------------------------------------

func (s *Server) handleDerive(w http.ResponseWriter, r *http.Request) int {
	var req DeriveRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		return writeError(w, err)
	}
	svc, err := protoderive.ParseService(req.Spec)
	if err != nil {
		return writeError(w, err)
	}
	normalized := svc.String()
	s.specs.put(SpecDigest(normalized), normalized)
	key := CacheKey("derive", normalized, req.Options.fingerprint())
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.SyncDeadline)
	defer cancel()
	val, outcome, err := s.compute(ctx, s.derivePool, "derive", key, func() (any, error) {
		return s.deriveResponse(svc, req.Options)
	})
	if err != nil {
		return writeError(w, err)
	}
	resp := *(val.(*DeriveResponse))
	resp.Cached = outcome != OutcomeComputed
	return writeJSON(w, http.StatusOK, resp)
}

// deriveResponse runs one derivation. Like verifyResponse it executes only
// inside the computing call of a cache miss, so the compile counters in
// s.metrics count each distinct compilation once.
func (s *Server) deriveResponse(svc *protoderive.Service, opts DeriveRequestOptions) (*DeriveResponse, error) {
	proto, err := svc.DeriveWithOptions(opts.facade())
	if err != nil {
		return nil, err
	}
	resp := &DeriveResponse{
		Places:       proto.Places(),
		Entities:     make(map[string]string, len(proto.Places())),
		Attributes:   svc.AttributeTable(),
		MessageCount: proto.MessageCount(),
		Complexity:   proto.Complexity(),
	}
	for _, p := range proto.Places() {
		resp.Entities[strconv.Itoa(p)] = proto.EntityText(p)
	}
	if opts.Compile {
		proto.UseArtifacts(s.arts)
		rep, err := proto.Compile(&protoderive.CompileOptions{MaxStates: opts.CompileMaxStates})
		if err != nil {
			return nil, err
		}
		states, transitions := 0, 0
		for _, e := range rep.Entities {
			states += e.MinStates
			transitions += e.MinTransitions
		}
		s.metrics.RecordCompile(rep.Compiled, rep.Fallback, states, transitions)
		resp.Compile = rep
	}
	return resp, nil
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) int {
	var req VerifyRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		return writeError(w, err)
	}
	svc, err := protoderive.ParseService(req.Spec)
	if err != nil {
		return writeError(w, err)
	}
	if _, err := req.Options.faultModels(); err != nil {
		return writeError(w, err)
	}
	normalized := svc.String()
	s.specs.put(SpecDigest(normalized), normalized)
	key := CacheKey("verify", normalized, req.Options.fingerprint())

	if async := r.URL.Query().Get("async"); async == "1" || async == "true" {
		id := s.jobs.Create("verify")
		go s.runVerifyJob(id, key, svc, req.Options)
		return writeJSON(w, http.StatusAccepted, JobAccepted{
			JobID: id, State: string(JobQueued), Poll: "/v1/jobs/" + id,
		})
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.SyncDeadline)
	defer cancel()
	val, outcome, err := s.compute(ctx, s.verifyPool, "verify", key, func() (any, error) {
		return s.verifyResponse(svc, req.Options, nil)
	})
	if err != nil {
		return writeError(w, err)
	}
	resp := *(val.(*VerifyResponse))
	resp.Cached = outcome != OutcomeComputed
	return writeJSON(w, http.StatusOK, resp)
}

// runVerifyJob executes an async verification. The job shares the cache
// and singleflight with synchronous requests: an async job for a spec
// someone is already verifying joins that computation, and its result
// serves later synchronous requests. Phase progress events flow to the
// job's SSE stream only from the call that actually computes — a job that
// joins another caller's in-flight computation sees lifecycle events only.
func (s *Server) runVerifyJob(id, key string, svc *protoderive.Service, opts VerifyRequestOptions) {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.JobDeadline)
	defer cancel()
	s.jobs.Start(id)
	val, outcome, err := s.compute(ctx, s.verifyPool, "verify", key, func() (any, error) {
		return s.verifyResponse(svc, opts, func(phase string) { s.jobs.Publish(id, phase) })
	})
	if err != nil {
		s.jobs.Finish(id, nil, err)
		return
	}
	resp := *(val.(*VerifyResponse))
	resp.Cached = outcome != OutcomeComputed
	s.jobs.Finish(id, resp, nil)
}

// verifyResponse runs one verification. It executes only inside the
// computing call of a cache miss, so the engine-counter aggregation in
// s.metrics counts each distinct verification once — cache hits and joined
// singleflight waiters serve the stored response without re-recording.
// progress, when non-nil, is invoked at the start of each phase (derive,
// reliable verify, one per fault-matrix cell).
func (s *Server) verifyResponse(svc *protoderive.Service, opts VerifyRequestOptions, progress func(string)) (*VerifyResponse, error) {
	if progress == nil {
		progress = func(string) {}
	}
	progress("derive")
	proto, err := svc.DeriveWithOptions(opts.facade())
	if err != nil {
		return nil, err
	}
	proto.UseArtifacts(s.arts)
	vo := &protoderive.VerifyOptions{
		ChannelCap:     opts.ChannelCap,
		ObsDepth:       opts.ObsDepth,
		MaxStates:      opts.MaxStates,
		Parallel:       opts.Parallel,
		Workers:        opts.Workers,
		TraceDiffLimit: opts.TraceDiffLimit,
		Compositional:  opts.Compositional,
		Reductions:     opts.Reductions,
		SpillBudget:    opts.SpillBudget,
	}
	progress("verify reliable")
	rep, err := proto.Verify(vo)
	if err != nil {
		return nil, err
	}
	if rep.Equiv != nil {
		s.metrics.RecordEquiv(rep.Equiv.TauSCCs, rep.Equiv.SaturationEdges,
			rep.Equiv.RefinementRounds, rep.Equiv.SaturateNanos, rep.Equiv.RefineNanos)
	}
	if rep.Compositional != nil {
		s.metrics.RecordCompositional(rep.Compositional)
	}
	if rep.Reduction != nil {
		s.metrics.RecordReduction(rep.Reduction)
	}
	resp := &VerifyResponse{
		Ok:             rep.Ok,
		Complete:       rep.Complete,
		WeakBisimilar:  rep.WeakBisimilar,
		TracesEqual:    rep.TracesEqual,
		ObsDepth:       rep.ObsDepth,
		Deadlocks:      rep.Deadlocks,
		ServiceStates:  rep.ServiceStates,
		ComposedStates: rep.ComposedStates,
		MessageCount:   proto.MessageCount(),
		Summary:        rep.Summary,
		SpecDigest:     SpecDigest(svc.String()),
		Witness:        rep.Witness,
		Equiv:          rep.Equiv,
		Compositional:  rep.Compositional,
		Reduction:      rep.Reduction,
	}
	models, err := opts.faultModels()
	if err != nil {
		return nil, err
	}
	// One VerifyMatrix call per model (the matrix is a per-model loop
	// anyway, so the cells are identical) so each cell can announce itself
	// on the progress stream before its exploration starts.
	for _, m := range models {
		progress("verify faults=" + m.String())
		cells, err := proto.VerifyMatrix([]protoderive.FaultModel{m}, vo)
		if err != nil {
			return nil, err
		}
		for _, c := range cells {
			resp.FaultMatrix = append(resp.FaultMatrix, FaultMatrixCell{
				Faults:      c.Faults,
				Ok:          c.Report.Ok,
				Complete:    c.Report.Complete,
				TracesEqual: c.Report.TracesEqual,
				Deadlocks:   c.Report.Deadlocks,
				Summary:     c.Report.Summary,
				Witness:     c.Report.Witness,
			})
		}
	}
	return resp, nil
}

func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) int {
	var req ExploreRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		return writeError(w, err)
	}
	normalized, err := protoderive.NormalizeSource(req.Spec)
	if err != nil {
		return writeError(w, err)
	}
	fp := fmt.Sprintf("obs=%d max=%d traces=%t", req.ObsDepth, req.MaxStates, req.Traces)
	key := CacheKey("explore", normalized, fp)
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.SyncDeadline)
	defer cancel()
	val, outcome, err := s.compute(ctx, s.derivePool, "explore", key, func() (any, error) {
		return protoderive.ExploreSource(req.Spec, &protoderive.ExploreOptions{
			ObsDepth:  req.ObsDepth,
			MaxStates: req.MaxStates,
			Traces:    req.Traces,
		})
	})
	if err != nil {
		return writeError(w, err)
	}
	return writeJSON(w, http.StatusOK, ExploreResponse{
		Cached:        outcome != OutcomeComputed,
		ExploreReport: *val.(*protoderive.ExploreReport),
	})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) int {
	job, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		return writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "no such job (expired or never created)"})
	}
	return writeJSON(w, http.StatusOK, job)
}

// handleJobEvents streams a job's progress as server-sent events: every
// stored event replayed, then live events as they happen, then an "end"
// event naming why the stream finished ("done", "failed" or "evicted").
// Comment-line keepalives tick while a computation is silent.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) int {
	past, ch, cancel, ok := s.jobs.Subscribe(r.PathValue("id"))
	if !ok {
		return writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "no such job (expired or never created)"})
	}
	defer cancel()
	fl, canFlush := w.(http.Flusher)
	if !canFlush {
		return writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: "streaming unsupported by connection"})
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	end := func(reason string) int {
		fmt.Fprintf(w, "event: end\ndata: {\"reason\":%q}\n\n", reason)
		fl.Flush()
		return http.StatusOK
	}
	writeEvent := func(ev JobEvent) (terminalReason string) {
		data, err := json.Marshal(ev)
		if err != nil {
			return "" // cannot happen for JobEvent; keep streaming
		}
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
		fl.Flush()
		switch ev.State {
		case JobDone:
			return "done"
		case JobFailed:
			return "failed"
		}
		return ""
	}
	for _, ev := range past {
		if reason := writeEvent(ev); reason != "" {
			return end(reason)
		}
	}
	keepalive := time.NewTicker(s.cfg.SSEKeepalive)
	defer keepalive.Stop()
	for {
		select {
		case ev, open := <-ch:
			if !open {
				// Evicted (or racing cancel) while attached: the job is
				// gone, so there is nothing more to say.
				return end("evicted")
			}
			if reason := writeEvent(ev); reason != "" {
				return end(reason)
			}
		case <-keepalive.C:
			fmt.Fprint(w, ": keepalive\n\n")
			fl.Flush()
		case <-r.Context().Done():
			return http.StatusOK
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) int {
	return writeJSON(w, http.StatusOK, Health{
		Status:        "ok",
		Version:       protoderive.Version,
		UptimeSeconds: time.Since(s.start).Seconds(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) int {
	return writeJSON(w, http.StatusOK, MetricsPage{
		MetricsSnapshot: s.metrics.Snapshot(),
		Cache:           s.cache.Stats(),
		Pools: map[string]PoolStats{
			"derive": s.derivePool.Stats(),
			"verify": s.verifyPool.Stats(),
		},
		Jobs:      s.jobs.Stats(),
		Artifacts: s.arts.Stats(),
		Runtime:   readRuntimeStats(),
	})
}
