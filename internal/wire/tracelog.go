package wire

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// The observable-trace log: each deployed entity appends one NDJSON record
// per executed service primitive to an append-only log, stamped with the
// global sequence number the coordinator assigned and a chained FNV-1a 64
// digest. The per-entity logs are the raw material of the conformance
// harness (internal/wire/conformance): merged on the sequence numbers they
// reconstruct the global observable trace of the live system, the digests
// detect tampering and interleaved corruption, and explicit start/restart/
// end marker records let the checker distinguish a cleanly ended session
// from a truncated one (crash, kill, lost coordinator).

// Trace record kinds.
const (
	// RecStart opens a session segment (one process launch).
	RecStart = "start"
	// RecRestart marks a process relaunch appending to an existing log.
	RecRestart = "restart"
	// RecEvent is one executed service primitive.
	RecEvent = "event"
	// RecEnd closes a session segment with its outcome.
	RecEnd = "end"
)

// Outcome strings recorded by RecEnd (and reported by conformance).
const (
	OutcomeCompleted  = "completed"
	OutcomeDeadlocked = "deadlocked"
	OutcomeTimedOut   = "timed-out"
	OutcomeStopped    = "stopped"
	OutcomeAborted    = "aborted"
)

// TraceRecord is one NDJSON line of an entity trace log.
type TraceRecord struct {
	Kind string `json:"kind"`
	// Start fields.
	Place int    `json:"place,omitempty"`
	Seed  int64  `json:"seed,omitempty"`
	Spec  string `json:"spec,omitempty"`
	// Event fields. Seq is the coordinator-assigned global sequence number
	// (0 is valid: the first event of the session).
	Seq   int    `json:"seq"`
	Event string `json:"event,omitempty"`
	// End fields.
	Outcome string `json:"outcome,omitempty"`
	Events  int    `json:"events,omitempty"`
	// Digest is the chained FNV-1a 64 digest over this segment's event
	// records so far, hex-encoded (event and end records).
	Digest string `json:"digest,omitempty"`
}

const fnvOffset64 = 14695981039346656037
const fnvPrime64 = 1099511628211

// fnvFold folds bytes into a running FNV-1a 64 state.
func fnvFold(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// eventDigest advances the chained digest by one (seq, event) record.
func eventDigest(h uint64, seq int, event string) uint64 {
	h = fnvFold(h, fmt.Sprintf("%d", seq))
	h = fnvFold(h, "\x00")
	h = fnvFold(h, event)
	return fnvFold(h, "\n")
}

// TraceWriter appends NDJSON records to an entity trace log. Each record is
// written (and flushed) as one line, so a killed process loses at most the
// line being written — the substrate of the crash/restart conformance
// contract.
type TraceWriter struct {
	w      io.Writer
	place  int
	digest uint64
	events int
	err    error
}

// NewTraceWriter starts a log segment: a restart marker first when the
// process is appending to a previous segment's log, then the start record.
func NewTraceWriter(w io.Writer, place int, seed int64, specDigest uint64, restarted bool) (*TraceWriter, error) {
	t := &TraceWriter{w: w, place: place, digest: fnvOffset64}
	if restarted {
		if err := t.emit(&TraceRecord{Kind: RecRestart, Place: place}); err != nil {
			return nil, err
		}
	}
	err := t.emit(&TraceRecord{
		Kind:  RecStart,
		Place: place,
		Seed:  seed,
		Spec:  fmt.Sprintf("%016x", specDigest),
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// emit writes one record as an NDJSON line.
func (t *TraceWriter) emit(rec *TraceRecord) error {
	if t.err != nil {
		return t.err
	}
	line, err := json.Marshal(rec)
	if err == nil {
		line = append(line, '\n')
		_, err = t.w.Write(line)
	}
	if err != nil {
		t.err = fmt.Errorf("wire: trace log: %w", err)
	}
	return t.err
}

// Event records one executed service primitive under its global sequence
// number, advancing the chained digest.
func (t *TraceWriter) Event(seq int, event string) error {
	t.digest = eventDigest(t.digest, seq, event)
	t.events++
	return t.emit(&TraceRecord{
		Kind:   RecEvent,
		Seq:    seq,
		Event:  event,
		Digest: fmt.Sprintf("%016x", t.digest),
	})
}

// End closes the segment with the session outcome and the final digest.
func (t *TraceWriter) End(outcome string) error {
	return t.emit(&TraceRecord{
		Kind:    RecEnd,
		Outcome: outcome,
		Events:  t.events,
		Digest:  fmt.Sprintf("%016x", t.digest),
	})
}

// EntityLog is one parsed entity trace log.
type EntityLog struct {
	// Place, Seed, Spec echo the (last) start record.
	Place int
	Seed  int64
	Spec  string
	// Events are the event records of the last session segment, in file
	// order. Each start record opens a new segment and a new global
	// numbering epoch (the coordinator's trace restarts empty), so events
	// from earlier segments cannot be merged into the current session's
	// numbering and are dropped here; the restart marker is what carries
	// their existence into the conformance verdict.
	Events []TraceRecord
	// Restarts counts restart markers.
	Restarts int
	// Ended reports a final end record; Outcome is its outcome string.
	Ended   bool
	Outcome string
	// DigestOK reports that every segment's chained digests verified.
	DigestOK bool
	// Started reports at least one start record was seen.
	Started bool
}

// ParseTraceLog reads one entity NDJSON trace log. Unparseable lines are
// errors; a log whose last segment has no end record parses fine (Ended
// false) — that is exactly the truncation the conformance checker must
// classify, not reject.
func ParseTraceLog(r io.Reader) (*EntityLog, error) {
	log := &EntityLog{DigestOK: true}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), MaxFrameBody)
	digest := uint64(fnvOffset64)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rec TraceRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("wire: trace log line %d: %w", line, err)
		}
		switch rec.Kind {
		case RecStart:
			log.Started = true
			log.Place = rec.Place
			log.Seed = rec.Seed
			log.Spec = rec.Spec
			log.Ended = false
			log.Events = nil
			digest = fnvOffset64
		case RecRestart:
			log.Restarts++
		case RecEvent:
			if rec.Seq < 0 {
				return nil, fmt.Errorf("wire: trace log line %d: negative sequence number %d", line, rec.Seq)
			}
			digest = eventDigest(digest, rec.Seq, rec.Event)
			if rec.Digest != fmt.Sprintf("%016x", digest) {
				log.DigestOK = false
			}
			log.Events = append(log.Events, rec)
		case RecEnd:
			log.Ended = true
			log.Outcome = rec.Outcome
			if rec.Digest != fmt.Sprintf("%016x", digest) {
				log.DigestOK = false
			}
		default:
			return nil, fmt.Errorf("wire: trace log line %d: unknown record kind %q", line, rec.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("wire: trace log: %w", err)
	}
	return log, nil
}
