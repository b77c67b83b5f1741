// Command pgdeploy deploys a derived protocol as real networked processes.
// It parses a service specification, derives one protocol entity per
// service access point, builds each entity's machine (internal/fsm), and
// then re-execs itself once per entity: every entity runs as its own OS
// process with its own TCP data endpoint, meshed over the wire codec's
// length-prefixed binary frames, scheduled by an in-driver coordinator so
// that a seeded session is byte-identical to the in-process lockstep
// simulation with the same seed.
//
// Each entity process appends NDJSON observable-trace records to an
// append-only per-entity log (chained FNV-1a digest, explicit
// start/restart/end markers). After the session the driver merges the
// logs on their coordinator-assigned sequence numbers and replays the
// global trace against the service specification — the conformance
// verdict (accepted / incomplete / deadlock / violation) is part of the
// report.
//
// Usage:
//
//	pgdeploy -spec FILE [flags]           deploy and run one seeded session
//	pgdeploy -check -spec FILE LOG...     conformance-check existing logs
//
// Flags:
//
//	-spec FILE            service specification (required)
//	-seed 1               session seed
//	-max-events 64        stop a non-terminating session after this many events
//	-max-states 1024      machine state cap; past it rows are not retained
//	-check-states 4096    state cap for the conformance replay
//	-channel-cap 16       unacked-frame window per directed channel
//	-logdir DIR           trace-log directory (default: a fresh temp dir)
//	-listen 127.0.0.1:0   coordinator control listen address
//	-timeout 60s          session wall-clock budget
//	-json                 machine-readable report on stdout
//	-restart-place P      append to place P's existing log (restart marker)
//	-crash-place P        chaos: crash place P's process mid-session...
//	-crash-after-events N ...after it has logged N events (0: right after start)
//
// Exit status: 0 when the session ran and the logs are conformant, 2 when
// the conformance verdict is not "accepted" (including deliberately
// crashed sessions), 1 on operational errors.
//
// The -spawn flag selects entity mode (internal; the driver re-execs
// itself with it): the process re-derives the spec, picks its place,
// dials the coordinator and runs the entity main loop.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/compose"
	"repro/internal/core"
	"repro/internal/fsm"
	"repro/internal/lotos"
	"repro/internal/wire"
	"repro/internal/wire/conformance"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is the parsed flag set, shared by all three modes.
type options struct {
	spec        string
	seed        int64
	maxEvents   int
	maxStates   int
	checkStates int
	channelCap  int
	logdir      string
	listen      string
	timeout     time.Duration
	jsonOut     bool
	check       bool

	restartPlace int
	crashPlace   int
	crashAfter   int

	// Entity-mode flags.
	spawn       bool
	place       int
	placeIndex  int
	coordinator string
	logPath     string
	restarted   bool
}

func parseFlags(args []string, stderr io.Writer) (*options, []string, error) {
	opt := &options{}
	fs := flag.NewFlagSet("pgdeploy", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&opt.spec, "spec", "", "service specification file")
	fs.Int64Var(&opt.seed, "seed", 1, "session seed")
	fs.IntVar(&opt.maxEvents, "max-events", 64, "event budget for non-terminating sessions")
	fs.IntVar(&opt.maxStates, "max-states", 1024, "machine state cap (rows past it are derived, not retained)")
	fs.IntVar(&opt.checkStates, "check-states", 4096, "conformance replay state cap")
	fs.IntVar(&opt.channelCap, "channel-cap", compose.DefaultChannelCap, "unacked-frame window per directed channel")
	fs.StringVar(&opt.logdir, "logdir", "", "trace-log directory (default: fresh temp dir)")
	fs.StringVar(&opt.listen, "listen", "127.0.0.1:0", "listen address (driver: control; entity: data)")
	fs.DurationVar(&opt.timeout, "timeout", 60*time.Second, "session wall-clock budget")
	fs.BoolVar(&opt.jsonOut, "json", false, "machine-readable report")
	fs.BoolVar(&opt.check, "check", false, "conformance-check existing trace logs")
	fs.IntVar(&opt.restartPlace, "restart-place", -1, "append to this place's existing log (restart)")
	fs.IntVar(&opt.crashPlace, "crash-place", -1, "chaos: crash this place's process mid-session")
	fs.IntVar(&opt.crashAfter, "crash-after-events", -1, "crash after logging N events (0: after start record)")
	fs.BoolVar(&opt.spawn, "spawn", false, "entity mode (internal)")
	fs.IntVar(&opt.place, "place", 0, "entity place (entity mode)")
	fs.IntVar(&opt.placeIndex, "place-index", 0, "entity scheduling index (entity mode)")
	fs.StringVar(&opt.coordinator, "coordinator", "", "coordinator control address (entity mode)")
	fs.StringVar(&opt.logPath, "log", "", "trace-log file (entity mode)")
	fs.BoolVar(&opt.restarted, "restarted", false, "append to an existing log (entity mode)")
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	if opt.spec == "" {
		return nil, nil, fmt.Errorf("pgdeploy: -spec is required")
	}
	return opt, fs.Args(), nil
}

func run(args []string, stdout, stderr io.Writer) int {
	opt, rest, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	switch {
	case opt.spawn:
		return runEntity(opt, stderr)
	case opt.check:
		return runCheck(opt, rest, stdout, stderr)
	default:
		return runDriver(opt, stdout, stderr)
	}
}

// loadDerivation parses the spec file and derives the protocol entities.
func loadDerivation(path string) (*core.Derivation, uint64, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	sp, err := lotos.Parse(string(src))
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	d, err := core.Derive(sp, core.Options{})
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	h := fnv.New64a()
	h.Write(src)
	return d, h.Sum64(), nil
}

// Report is the driver's machine-readable session report.
type Report struct {
	Spec      string            `json:"spec"`
	Seed      int64             `json:"seed"`
	Places    []int             `json:"places"`
	Canonical string            `json:"canonical"`
	Aborted   bool              `json:"aborted"`
	Reason    string            `json:"reason,omitempty"`
	Logs      []string          `json:"logs"`
	Entities  map[string]string `json:"entityErrors,omitempty"`

	Conformance *conformance.Report `json:"conformance"`
}

// runDriver derives, spawns one process per entity, runs one seeded
// session and conformance-checks the recorded logs.
func runDriver(opt *options, stdout, stderr io.Writer) int {
	d, digest, err := loadDerivation(opt.spec)
	if err != nil {
		fmt.Fprintln(stderr, "pgdeploy:", err)
		return 1
	}
	fleet := fsm.CompileEntities(d.Entities, fsm.Config{MaxStates: opt.maxStates})
	table := wire.TableFromFleet(fleet)
	places := make([]int, 0, len(d.Entities))
	for p := range d.Entities {
		places = append(places, p)
	}
	sort.Ints(places)

	logdir := opt.logdir
	if logdir == "" {
		logdir, err = os.MkdirTemp("", "pgdeploy-*")
		if err != nil {
			fmt.Fprintln(stderr, "pgdeploy:", err)
			return 1
		}
	} else if err := os.MkdirAll(logdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "pgdeploy:", err)
		return 1
	}

	coord, err := wire.NewCoordinator(wire.CoordinatorConfig{
		N: len(places), Table: table, SpecDigest: digest,
		Listen: opt.listen, MaxEvents: opt.maxEvents, Timeout: opt.timeout,
	})
	if err != nil {
		fmt.Fprintln(stderr, "pgdeploy:", err)
		return 1
	}
	defer coord.Close()

	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "pgdeploy:", err)
		return 1
	}
	cmds := make(map[int]*exec.Cmd, len(places))
	logPaths := make([]string, 0, len(places))
	for i, p := range places {
		logPath := filepath.Join(logdir, fmt.Sprintf("entity-%d.ndjson", p))
		logPaths = append(logPaths, logPath)
		eargs := []string{
			"-spawn",
			"-spec", opt.spec,
			"-place", fmt.Sprint(p),
			"-place-index", fmt.Sprint(i),
			"-coordinator", coord.Addr(),
			"-listen", "127.0.0.1:0",
			"-log", logPath,
			"-max-states", fmt.Sprint(opt.maxStates),
			"-channel-cap", fmt.Sprint(opt.channelCap),
			"-timeout", opt.timeout.String(),
		}
		if p == opt.restartPlace {
			eargs = append(eargs, "-restarted")
		}
		if p == opt.crashPlace {
			eargs = append(eargs, "-crash-after-events", fmt.Sprint(opt.crashAfter))
		}
		cmd := exec.Command(exe, eargs...)
		cmd.Stderr = stderr
		if err := cmd.Start(); err != nil {
			fmt.Fprintf(stderr, "pgdeploy: spawn entity %d: %v\n", p, err)
			for _, c := range cmds {
				c.Process.Kill()
			}
			return 1
		}
		cmds[p] = cmd
	}

	rep := &Report{Spec: opt.spec, Seed: opt.seed, Places: places, Logs: logPaths}
	if err := coord.WaitEntities(); err != nil {
		fmt.Fprintln(stderr, "pgdeploy: mesh establishment:", err)
		for _, c := range cmds {
			c.Process.Kill()
		}
		for _, c := range cmds {
			c.Wait()
		}
		return 1
	}

	srep, err := coord.RunSeeded(opt.seed)
	// A crashed entity aborts the session; the logs are still the material
	// the conformance checker must classify, so keep going.
	if err != nil && !srep.Aborted {
		fmt.Fprintln(stderr, "pgdeploy: session:", err)
	}
	rep.Canonical = srep.Canonical()
	rep.Aborted = srep.Aborted
	rep.Reason = srep.Reason

	for p, c := range cmds {
		if err := c.Wait(); err != nil {
			if rep.Entities == nil {
				rep.Entities = map[string]string{}
			}
			rep.Entities[fmt.Sprint(p)] = err.Error()
		}
	}

	conf, err := conformance.CheckFiles(lotos.CloneSpec(d.Service.Spec), logPaths, opt.checkStates)
	if err != nil {
		fmt.Fprintln(stderr, "pgdeploy: conformance:", err)
		return 1
	}
	rep.Conformance = conf
	emitReport(opt, rep, stdout)
	if rep.Conformance.Verdict != conformance.VerdictAccepted {
		return 2
	}
	return 0
}

// emitReport writes the driver report, machine- or human-readable.
func emitReport(opt *options, rep *Report, stdout io.Writer) {
	if opt.jsonOut {
		enc := json.NewEncoder(stdout)
		enc.Encode(rep)
		return
	}
	fmt.Fprintf(stdout, "spec      %s (seed %d, %d entities)\n", rep.Spec, rep.Seed, len(rep.Places))
	fmt.Fprintf(stdout, "outcome   %s\n", rep.Canonical)
	if rep.Aborted {
		fmt.Fprintf(stdout, "aborted   %s\n", rep.Reason)
	}
	fmt.Fprintf(stdout, "verdict   %s", rep.Conformance.Verdict)
	if rep.Conformance.Reason != "" {
		fmt.Fprintf(stdout, " (%s)", rep.Conformance.Reason)
	}
	fmt.Fprintln(stdout)
	for _, l := range rep.Logs {
		fmt.Fprintf(stdout, "log       %s\n", l)
	}
}

// crashWriter injects a deterministic crash into an entity's trace-log
// stream: it hard-exits the process (simulating a kill) immediately after
// the Nth event record has been durably written — or right after the
// start record when N is zero. Every TraceWriter record is one Write.
type crashWriter struct {
	f     *os.File
	after int
	seen  int
}

func (w *crashWriter) Write(p []byte) (int, error) {
	n, err := w.f.Write(p)
	if err != nil {
		return n, err
	}
	var rec wire.TraceRecord
	if json.Unmarshal(p, &rec) != nil {
		return n, nil
	}
	crash := false
	switch rec.Kind {
	case wire.RecStart:
		crash = w.after == 0
	case wire.RecEvent:
		w.seen++
		crash = w.after > 0 && w.seen >= w.after
	}
	if crash {
		w.f.Sync()
		os.Exit(3)
	}
	return n, nil
}

// runEntity is the re-exec'd entity process: re-derive the spec, pick the
// place, open the log and run the entity main loop.
func runEntity(opt *options, stderr io.Writer) int {
	d, digest, err := loadDerivation(opt.spec)
	if err != nil {
		fmt.Fprintln(stderr, "pgdeploy entity:", err)
		return 1
	}
	if _, ok := d.Entities[opt.place]; !ok {
		fmt.Fprintf(stderr, "pgdeploy entity: no entity at place %d\n", opt.place)
		return 1
	}
	fleet := fsm.CompileEntities(d.Entities, fsm.Config{MaxStates: opt.maxStates})
	table := wire.TableFromFleet(fleet)

	mode := os.O_CREATE | os.O_WRONLY
	if opt.restarted {
		mode |= os.O_APPEND
	} else {
		mode |= os.O_TRUNC
	}
	f, err := os.OpenFile(opt.logPath, mode, 0o644)
	if err != nil {
		fmt.Fprintln(stderr, "pgdeploy entity:", err)
		return 1
	}
	defer f.Close()
	var traceLog io.Writer = f
	if opt.crashAfter >= 0 {
		traceLog = &crashWriter{f: f, after: opt.crashAfter}
	}

	err = wire.RunEntity(wire.EntityConfig{
		Place: opt.place, PlaceIndex: opt.placeIndex,
		Machine: fleet.Machines[opt.place],
		Table:   table, SpecDigest: digest,
		Coordinator: opt.coordinator, Listen: opt.listen,
		ChannelCap: opt.channelCap, TraceLog: traceLog,
		Restarted: opt.restarted, SessionTimeout: opt.timeout,
	})
	if err != nil {
		fmt.Fprintf(stderr, "pgdeploy entity %d: %v\n", opt.place, err)
		return 1
	}
	return 0
}

// runCheck conformance-checks existing trace logs against the spec.
func runCheck(opt *options, logs []string, stdout, stderr io.Writer) int {
	if len(logs) == 0 {
		fmt.Fprintln(stderr, "pgdeploy: -check needs trace-log files as arguments")
		return 1
	}
	d, _, err := loadDerivation(opt.spec)
	if err != nil {
		fmt.Fprintln(stderr, "pgdeploy:", err)
		return 1
	}
	conf, err := conformance.CheckFiles(lotos.CloneSpec(d.Service.Spec), logs, opt.checkStates)
	if err != nil {
		fmt.Fprintln(stderr, "pgdeploy: conformance:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	enc.Encode(conf)
	if conf.Verdict != conformance.VerdictAccepted {
		return 2
	}
	return 0
}
