package protoderive

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sim"
)

// matrixModels is the fault-matrix column set: the paper's reliable medium
// plus each single-fault model.
var matrixModels = []FaultModel{{}, {Loss: true}, {Duplication: true}, {Reorder: true}}

// matrixOpts are the corpus cells' bounds, small enough for the -race run.
// The multi-instance specs verify at 4,000 states instead (multiMaxStates).
var matrixOpts = VerifyOptions{ObsDepth: 4, MaxStates: 20000}

// multiMaxStates bounds the multiinstance and multiring cells: their
// compositions overflow any affordable budget (~100k+ states, more under
// faults), so their verdicts are the same truncation artifacts at 4,000
// states as at 20,000.
const multiMaxStates = 4000

// corpusVerifyGoldenFile pins every fault-matrix cell's report text and
// witness byte for byte.
var corpusVerifyGoldenFile = filepath.Join("testdata", "corpus_verify.golden")

// reductionColumns are the reduction sets verified against the unreduced
// ground truth ("none"). "por" is the default set, so its column is the
// cell's reference report.
var reductionColumns = []string{"por", "por+symmetry", "por+spill", "all"}

// corpusSpec is one derivable corpus specification.
type corpusSpec struct {
	name  string
	src   string
	proto *Protocol
}

// theoremCovered reports whether the Section-5 theorem covers the spec:
// not a disabling spec (the derived interrupt broadcast deviates by design,
// EXPERIMENTS.md E11), and not a multi-instance spec, whose cells are
// truncation artifacts at the corpus bounds.
func (s corpusSpec) theoremCovered() bool {
	return !strings.Contains(s.src, "[>") && !s.multiInstance()
}

func (s corpusSpec) multiInstance() bool {
	return s.name == "multiinstance" || s.name == "multiring"
}

// corpusSpecs parses and derives every corpus spec in name order, skipping
// the ones that violate restrictions R1–R3.
func corpusSpecs() ([]corpusSpec, error) {
	files, err := filepath.Glob(filepath.Join("specs", "*.spec"))
	if err != nil {
		return nil, err
	}
	var out []corpusSpec
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		svc, err := ParseService(string(src))
		if err != nil {
			var se *SpecError
			if errors.As(err, &se) && se.Rule != "" {
				continue
			}
			return nil, fmt.Errorf("%s: parse: %v", file, err)
		}
		proto, err := svc.Derive()
		if err != nil {
			return nil, fmt.Errorf("%s: derive: %v", file, err)
		}
		if len(proto.Places()) == 0 {
			return nil, fmt.Errorf("%s: derived protocol has no entities", file)
		}
		out = append(out, corpusSpec{strings.TrimSuffix(filepath.Base(file), ".spec"), string(src), proto})
	}
	if len(out) == 0 {
		return nil, errors.New("no usable corpus specs")
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out, nil
}

// corpusCell is one verification cell: a corpus spec at one channel
// capacity under one fault model, at fixed bounds. Its reference report is
// the serial, monolithic, default-reduction verification; every column is
// another engine configuration verified on the same cell.
type corpusCell struct {
	key    string // "spec/capN/faults", the golden file's key for matrix cells
	spec   corpusSpec
	opts   VerifyOptions
	golden bool // a fault-matrix cell, recorded in corpusVerifyGoldenFile
}

// sweepKey is the key of a spec's cell at the full 20,000-state budget:
// its capacity-1 reliable matrix cell, or for a multi-instance spec, whose
// matrix cells run at multiMaxStates, a cell of its own.
func sweepKey(s corpusSpec) string {
	if s.multiInstance() {
		return s.name + "/cap1/reliable@20000states"
	}
	return s.name + "/cap1/reliable"
}

// corpusCells lists the gate's cells: the fault matrix (every spec at
// capacities 1 and 2 under every matrix model), each spec's capacity-1
// loss+dup cell (both fault-aware ample-set disqualifiers at once), and the
// multi-instance specs at the full 20,000-state budget.
func corpusCells(specs []corpusSpec) []corpusCell {
	var cells []corpusCell
	for _, s := range specs {
		maxStates := matrixOpts.MaxStates
		if s.multiInstance() {
			maxStates = multiMaxStates
			// ChannelCap 0 selects the default capacity, 1.
			cells = append(cells, corpusCell{key: sweepKey(s), spec: s, opts: matrixOpts})
		}
		for _, chanCap := range []int{1, 2} {
			for _, fm := range matrixModels {
				opts := matrixOpts
				opts.ChannelCap, opts.MaxStates, opts.Faults = chanCap, maxStates, fm
				cells = append(cells, corpusCell{
					key: s.name + "/cap" + string(rune('0'+chanCap)) + "/" + fm.String(), spec: s, opts: opts,
					golden: true,
				})
			}
		}
		opts := matrixOpts
		opts.ChannelCap, opts.MaxStates, opts.Faults = 1, maxStates, FaultModel{Loss: true, Duplication: true}
		cells = append(cells, corpusCell{key: s.name + "/cap1/loss+dup", spec: s, opts: opts})
	}
	return cells
}

// columnOptions derives a column's options from its cell's. Reduction
// columns run with a 4 KiB spill budget, tiny enough that every spilling
// set spills.
func columnOptions(opts VerifyOptions, col string) VerifyOptions {
	switch col {
	case "parallel":
		opts.Parallel, opts.Workers = true, 4
	case "compositional":
		opts.Compositional = true
	case "compositional-parallel":
		opts.Compositional, opts.Parallel, opts.Workers = true, true, 4
	case "por+symmetry-parallel":
		opts.Reductions, opts.SpillBudget, opts.Parallel, opts.Workers = "por+symmetry", 1<<12, true, 4
	default:
		opts.Reductions, opts.SpillBudget = col, 1<<12
	}
	return opts
}

// corpusGate is the corpus gate: the corpus derived once, one artifact
// cache shared by every protocol, and the cells' reports memoized. The
// corpus tests below are views over it, each checking one relation over the
// cells it names, so a report that several of them check is computed once
// per test binary.
type corpusGate struct {
	cells  []corpusCell
	byKey  map[string]*corpusCell
	specs  []corpusSpec
	arts   *ArtifactCache
	mu     sync.Mutex
	memo   map[string]*memoEntry
	golden struct {
		once  sync.Once
		cells map[string]string
		err   error
	}
}

// memoEntry is one memoized verification: a cell's report under one
// column, or the reference reports of one fault-matrix row.
type memoEntry struct {
	once sync.Once
	reps []*VerifyReport
	err  error
}

var (
	gateOnce sync.Once
	gate     *corpusGate
	gateErr  error
)

// theGate returns the corpus gate, deriving the corpus on first use.
func theGate(t *testing.T) *corpusGate {
	t.Helper()
	gateOnce.Do(func() {
		specs, err := corpusSpecs()
		if err != nil {
			gateErr = err
			return
		}
		g := &corpusGate{specs: specs, cells: corpusCells(specs), byKey: map[string]*corpusCell{},
			arts: NewArtifactCache(0), memo: map[string]*memoEntry{}}
		for i := range g.cells {
			g.byKey[g.cells[i].key] = &g.cells[i]
		}
		for _, s := range specs {
			s.proto.UseArtifacts(g.arts)
		}
		gate = g
	})
	if gateErr != nil {
		t.Fatal(gateErr)
	}
	return gate
}

// cell returns the cell with the given key.
func (g *corpusGate) cell(t *testing.T, key string) *corpusCell {
	t.Helper()
	c, ok := g.byKey[key]
	if !ok {
		t.Fatalf("no corpus cell %s", key)
	}
	return c
}

// matrix returns the fault-matrix cells, in key order.
func (g *corpusGate) matrix() []*corpusCell {
	var out []*corpusCell
	for i := range g.cells {
		if g.cells[i].golden {
			out = append(out, &g.cells[i])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// memoized returns the reports stored under key, calling verify to compute
// them on first use only.
func (g *corpusGate) memoized(t *testing.T, key string, verify func() ([]*VerifyReport, error)) []*VerifyReport {
	t.Helper()
	g.mu.Lock()
	m, ok := g.memo[key]
	if !ok {
		m = &memoEntry{}
		g.memo[key] = m
	}
	g.mu.Unlock()
	m.once.Do(func() { m.reps, m.err = verify() })
	if m.err != nil {
		t.Fatalf("%s: %v", key, m.err)
	}
	return m.reps
}

// report returns the cell's report under a column, verifying it on first
// use. The reference column is "" — or "por", the default reduction set,
// which is the reference report itself. A fault-matrix cell's reference
// comes from one Protocol.VerifyMatrix call per spec and capacity, which
// verifies every matrix model over one cloned service and entity set.
func (g *corpusGate) report(t *testing.T, c *corpusCell, col string) *VerifyReport {
	t.Helper()
	if col == "por" {
		col = ""
	}
	if col != "" || !c.golden {
		return g.memoized(t, c.key+"|"+col, func() ([]*VerifyReport, error) {
			rep, err := verifyColumn(c, col)
			return []*VerifyReport{rep}, err
		})[0]
	}
	row := g.memoized(t, fmt.Sprintf("%s/cap%d", c.spec.name, c.opts.ChannelCap), func() ([]*VerifyReport, error) {
		opts := c.opts
		opts.Faults = FaultModel{}
		return c.spec.proto.VerifyMatrix(matrixModels, &opts)
	})
	for i, fm := range matrixModels {
		if fm == c.opts.Faults {
			return row[i]
		}
	}
	t.Fatalf("%s: fault model %s is not a matrix model", c.key, c.opts.Faults)
	return nil
}

// verifyColumn verifies the cell under a column, "" being the reference.
func verifyColumn(c *corpusCell, col string) (*VerifyReport, error) {
	opts := c.opts
	if col != "" {
		opts = columnOptions(c.opts, col)
	}
	return c.spec.proto.Verify(&opts)
}

// goldenCells reads the golden file's records by cell key, and checks the
// file is exactly those records in key order.
func (g *corpusGate) goldenCells(t *testing.T) map[string]string {
	t.Helper()
	gf := &g.golden
	gf.once.Do(func() { gf.cells, gf.err = readGoldenCells() })
	if gf.err != nil {
		t.Fatal(gf.err)
	}
	return gf.cells
}

func readGoldenCells() (map[string]string, error) {
	file, err := os.ReadFile(corpusVerifyGoldenFile)
	if err != nil {
		return nil, err
	}
	cells := map[string]string{}
	var keys []string
	for _, part := range strings.Split("\n"+string(file), "\n== ")[1:] {
		key, rec, _ := strings.Cut(part, "\n")
		cells[key] = strings.TrimSuffix(rec, "\n") + "\n"
		keys = append(keys, key)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString("== " + k + "\n" + cells[k])
	}
	if b.String() != string(file) {
		return nil, fmt.Errorf("%s is not its cell records in key order", corpusVerifyGoldenFile)
	}
	return cells, nil
}

// TestCorpusDeriveVerifySweep pushes every checked-in specification through
// the full facade pipeline — parse, derive, verify — at the full
// 20,000-state budget, serially and in parallel, and holds the two reports
// byte-identical.
func TestCorpusDeriveVerifySweep(t *testing.T) {
	g := theGate(t)
	for _, s := range g.specs {
		c := g.cell(t, sweepKey(s))
		t.Run(s.name+".spec", func(t *testing.T) {
			t.Parallel()
			ref := g.report(t, c, "")
			par := g.report(t, c, "parallel")
			checkReport(t, c.spec.proto, ref, par)
			sameReport(t, ref, par)
		})
	}
}

// TestCorpusFaultMatrix verifies every corpus spec under every fault model
// at channel capacities 1 and 2 and checks each cell's reference report: a
// conformant cell carries no witness, a failed complete one carries one,
// and the witness replays to its divergence identically through the shared
// fleet and through fresh machines. The parallel explorer's report equals
// the reference byte for byte. TestCorpusVerifyGolden pins each cell's
// report.
//
// Reading the fault matrix:
//   - The reliable column is conformant for every spec the Section-5
//     theorem covers (TestCorpusReliableColumnConformant). example3,
//     example6 and nesteddisable use the disabling operator "[>", which the
//     theorem excludes; the Section-3.3 broadcast implementation deviates
//     by design (EXPERIMENTS.md, E11), so those rows fail even reliably.
//     multiinstance is conformant
//     (TestMultiinstanceReliableConformantAtDeeperBounds) and multiring is
//     conformant at channel capacity 3
//     (TestMultiringConformantUnderSymmetry), but their compositions
//     overflow the cells' MaxStates budget and the bounded comparison then
//     reports a spurious trace difference: with the composed graph
//     truncated, witness extraction is conservatively skipped, so every
//     multi-instance cell fails with no witness.
//   - Message loss deadlocks every protocol: the derived entities assume a
//     reliable medium (Section 6), so a lost synchronization message stalls
//     its receiver forever.
//   - Duplication at capacity 1 is degenerate: a full channel absorbs the
//     duplicate (the buffer has no room for a second copy), so cap-1 cells
//     equal the reliable column. At capacity 2 the duplicate arrives and
//     the protocols deadlock on the unconsumed extra copy — except barrier,
//     whose entities exchange at most one distinct message per channel, and
//     example6, whose extra trace shows first.
//   - Adjacent reordering needs two distinct messages in flight on one
//     channel; at these depths the corpus protocols keep at most one
//     distinct message per channel, so reorder columns match reliable ones
//     (except example3's cap-2 row, where reordering the interrupt
//     broadcast against a data message yields an extra trace).
func TestCorpusFaultMatrix(t *testing.T) {
	g := theGate(t)
	for _, c := range g.matrix() {
		t.Run(c.key, func(t *testing.T) {
			t.Parallel()
			proto := c.spec.proto
			ref := g.report(t, c, "")
			checkReport(t, proto, ref, ref)
			if ref.Faults != c.opts.Faults.String() {
				t.Errorf("report fault model = %q, want %q", ref.Faults, c.opts.Faults.String())
			}
			if ref.Witness != nil {
				replayed := replayWitness(t, proto, ref.Witness)
				fresh, err := sim.ReplayWitness(proto.d.Entities, ref.Witness)
				if err != nil {
					t.Fatalf("fresh replay: %v\n%s", err, ref.Witness.Summary())
				}
				if !reflect.DeepEqual(fresh, replayed) {
					t.Errorf("fresh-machine replay diverges from shared-fleet replay:\n shared: %+v\n fresh:  %+v", replayed, fresh)
				}
			}
			par := g.report(t, c, "parallel")
			checkReport(t, proto, ref, par)
			sameReport(t, ref, par)
		})
	}
}

// TestCorpusVerifyGolden holds every fault-matrix cell's report — its
// Summary and its JSON-encoded witness — byte-identical to its record in
// corpusVerifyGoldenFile: any change to the trace comparison, the witness
// search or the report text shows up here cell by cell.
func TestCorpusVerifyGolden(t *testing.T) {
	g := theGate(t)
	golden := g.goldenCells(t)
	matrix := g.matrix()
	if len(matrix) != len(golden) {
		t.Errorf("%d fault-matrix cells, %d recorded in %s", len(matrix), len(golden), corpusVerifyGoldenFile)
	}
	for _, c := range matrix {
		want, ok := golden[c.key]
		if !ok {
			t.Errorf("%s: no record in %s", c.key, corpusVerifyGoldenFile)
			continue
		}
		if got := reportRecord(t, g.report(t, c, "")); got != want {
			t.Errorf("%s: report differs from %s:\n--- got\n%s--- want\n%s", c.key, corpusVerifyGoldenFile, got, want)
		}
	}
}

// TestCorpusReliableColumnConformant pins the acceptance claim: under the
// paper's reliable FIFO medium every corpus spec the Section-5 theorem
// covers verifies conformant at capacities 1 and 2.
func TestCorpusReliableColumnConformant(t *testing.T) {
	g := theGate(t)
	for _, c := range g.matrix() {
		if c.opts.Faults.Any() || !c.spec.theoremCovered() {
			continue
		}
		if rep := g.report(t, c, ""); !rep.Ok {
			t.Errorf("%s: reliable medium not conformant:\n%s", c.key, rep.Summary)
		}
	}
}

// TestReplayDecodedWitness decodes every witness recorded in
// corpusVerifyGoldenFile, as a daemon client receives it, and replays it:
// the replay must reach the same trace and deadlock flag as the replay of
// the witness Verify returns for the cell.
func TestReplayDecodedWitness(t *testing.T) {
	g := theGate(t)
	golden := g.goldenCells(t)
	for _, c := range g.matrix() {
		rec, ok := golden[c.key]
		if !ok {
			t.Errorf("%s: no record in %s", c.key, corpusVerifyGoldenFile)
			continue
		}
		_, line, _ := strings.Cut(rec, "\nwitness: ")
		var decoded *Witness
		if err := json.Unmarshal([]byte(line), &decoded); err != nil {
			t.Fatalf("%s: decoding the recorded witness: %v", c.key, err)
		}
		live := g.report(t, c, "").Witness
		if (decoded == nil) != (live == nil) {
			t.Errorf("%s: recorded witness %s, live witness %v", c.key, strings.TrimSpace(line), live != nil)
			continue
		}
		if decoded == nil {
			continue
		}
		want, err := c.spec.proto.Replay(live)
		if err != nil {
			t.Fatalf("%s: replaying the live witness: %v", c.key, err)
		}
		got, err := c.spec.proto.Replay(decoded)
		if err != nil {
			t.Fatalf("%s: replaying the decoded witness: %v", c.key, err)
		}
		if !reflect.DeepEqual(got.Trace, want.Trace) || got.Deadlocked != want.Deadlocked {
			t.Errorf("%s: decoded replay trace %q deadlocked=%t, live %q deadlocked=%t",
				c.key, got.Trace, got.Deadlocked, want.Trace, want.Deadlocked)
		}
	}
}

// TestCorpusCompositionalDifferential verifies every fault-matrix cell
// compositionally (quotient-before-compose over the shared artifact cache),
// serially and in parallel, against the monolithic reference:
//
//   - where the reference did not hit the state cap, every verdict field
//     matches; a state-capped reference is a truncation artifact the
//     quotient product may improve on, so only the safe direction is
//     checked (reference Ok must not turn into a failure);
//   - a failing compositional cell records its monolithic fallback and,
//     uncapped, carries the reference's witness byte for byte;
//   - the parallel compositional report equals the serial one byte for
//     byte.
//
// Each cell's parallel column re-verifies the entity machines its serial
// column just cached, so over the cells this test verifies the shared
// cache's hits must dominate its misses. Only this test verifies the
// compositional columns, so it verifies them afresh rather than through the
// gate's memo, and its cache lookups are the counters' growth while it runs.
func TestCorpusCompositionalDifferential(t *testing.T) {
	g := theGate(t)
	before := g.arts.Stats()
	var verified atomic.Int64
	t.Cleanup(func() {
		st := g.arts.Stats()
		hits, misses := st.EntityHits-before.EntityHits, st.EntityMisses-before.EntityMisses
		if verified.Load() > 0 && (hits == 0 || hits < misses) {
			t.Errorf("artifact cache: %d hits, %d misses over %d cells; want hits, and no fewer than misses", hits, misses, verified.Load())
		}
	})
	for _, c := range g.matrix() {
		t.Run(c.key, func(t *testing.T) {
			t.Parallel()
			proto := c.spec.proto
			ref := g.report(t, c, "")
			comp, err := verifyColumn(c, "compositional")
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, proto, ref, comp)
			checkCompositional(t, ref, comp, c.opts.MaxStates)
			par, err := verifyColumn(c, "compositional-parallel")
			if err != nil {
				t.Fatal(err)
			}
			verified.Add(1)
			checkReport(t, proto, ref, par)
			sameReport(t, comp, par)
		})
	}
}

// TestCorpusReductionDifferential is the reduction-soundness oracle: every
// corpus spec at capacity 1, under the reliable medium and under loss and
// duplication together, is verified unreduced (none, the ground truth) and
// once per reduction set, and each set must return the unreduced verdict:
// Ok, TracesEqual, Complete, deadlock presence (the symmetry quotient
// counts orbits), and the exact ≈ verdict when both explorations close.
// Where the unreduced product is state-capped, only the safe direction is
// checked (unreduced Ok must not turn into a reduced failure). Every
// reduced witness replays through the concrete runtime; a failure found
// under symmetry is the plain-POR report with the fallback marker; and a
// spilling set spills under the 4 KiB budget.
func TestCorpusReductionDifferential(t *testing.T) {
	g := theGate(t)
	for _, s := range g.specs {
		for _, fc := range []string{"reliable", "loss+dup"} {
			c := g.cell(t, s.name+"/cap1/"+fc)
			for _, red := range reductionColumns {
				t.Run(s.name+"/"+fc+"/"+red, func(t *testing.T) {
					t.Parallel()
					proto := c.spec.proto
					ref, none := g.report(t, c, ""), g.report(t, c, "none")
					if red == "por" {
						checkReport(t, proto, ref, none)
						// TestCorpusFaultMatrix replays the matrix cells'
						// reference witnesses; the loss+dup cells' replay here.
						if !c.golden && ref.Witness != nil {
							replayWitness(t, proto, ref.Witness)
						}
					}
					rep := g.report(t, c, red)
					if rep.Reduction == nil {
						t.Fatal("reduced cell carries no reduction stats")
					}
					checkReport(t, proto, ref, rep)
					checkReduction(t, none, rep, c.opts.MaxStates)
				})
			}
		}
	}
}

// TestCorpusSerialParallelSpilledAgree pins that, within one reduction set,
// the exploration core's three configurations — one worker, several
// workers, and the spilling visited index — are interchangeable: every
// corpus spec's capacity-1 reliable cell under por+symmetry reports the
// same verdict fields, state counts and witness from the serial, the
// parallel and the spilled (all) engine.
func TestCorpusSerialParallelSpilledAgree(t *testing.T) {
	g := theGate(t)
	for _, s := range g.specs {
		c := g.cell(t, s.name+"/cap1/reliable")
		ref, serial := g.report(t, c, ""), g.report(t, c, "por+symmetry")
		for _, col := range []string{"por+symmetry-parallel", "all"} {
			rep := g.report(t, c, col)
			checkReport(t, c.spec.proto, ref, rep)
			sameVerdict(t, s.name+" "+col, serial, rep)
		}
	}
}

func witnessJSON(t *testing.T, w *Witness) string {
	t.Helper()
	b, err := json.Marshal(w)
	if err != nil {
		t.Fatalf("encoding witness: %v", err)
	}
	return string(b)
}

// reportRecord renders a report as its golden-file record: the Summary and
// the JSON-encoded witness.
func reportRecord(t *testing.T, rep *VerifyReport) string {
	t.Helper()
	return rep.Summary + "\nwitness: " + witnessJSON(t, rep.Witness) + "\n"
}

// checkReport holds the invariants of every report: a conformant verdict
// carries no witness, a failed complete one carries one, and a witness
// other than the reference's (replayed on its own) replays to its
// divergence. A failure found over the symmetry quotient is re-verified
// without symmetry under the same options, so its report keeps no symmetry
// columns and, its reduction lines aside, is the reference report. A
// spilling reduction set spills under the 4 KiB budget.
func checkReport(t *testing.T, proto *Protocol, ref, rep *VerifyReport) {
	t.Helper()
	if rep.Ok && rep.Witness != nil {
		t.Error("conformant cell carries a witness")
	}
	if !rep.Ok && rep.Complete && rep.Witness == nil {
		t.Error("non-conformant complete cell carries no witness")
	}
	if rep.Witness != nil && witnessJSON(t, rep.Witness) != witnessJSON(t, ref.Witness) {
		replayWitness(t, proto, rep.Witness)
	}
	red := rep.Reduction
	if !rep.Ok && red.SymmetryColumns > 0 {
		t.Error("failing symmetry-reduced cell was not re-verified without symmetry")
	}
	if red.Fallback != "" && (withoutReductionLines(rep.Summary) != ref.Summary || witnessJSON(t, rep.Witness) != witnessJSON(t, ref.Witness)) {
		t.Errorf("symmetry fallback differs from the plain-POR report:\n--- por\n%s--- fallback\n%s", reportRecord(t, ref), reportRecord(t, rep))
	}
	if strings.Contains(red.Enabled, "spill") && red.SpillRuns == 0 && rep.ComposedStates > 200 {
		t.Errorf("4KiB budget spilled no runs over %d states", rep.ComposedStates)
	}
}

// replayWitness replays a witness through the protocol's shared fleet,
// whose rows earlier replays filled, and checks it reaches the reported
// divergence: the replayed observable trace is the witness trace, and a
// deadlock witness deadlocks.
func replayWitness(t *testing.T, proto *Protocol, w *Witness) *ReplayResult {
	t.Helper()
	res, err := proto.Replay(w)
	if err != nil {
		t.Fatalf("replay: %v\n%s", err, w.Summary())
	}
	if !reflect.DeepEqual(res.Trace, w.Trace) && !(len(res.Trace) == 0 && len(w.Trace) == 0) {
		t.Errorf("replayed trace %q, witness trace %q", res.Trace, w.Trace)
	}
	if w.Kind == "deadlock" && !res.Deadlocked {
		t.Errorf("deadlock witness did not deadlock on replay:\n%s", w.Summary())
	}
	return res
}

// sameReport requires two engine configurations to report byte for byte
// alike: the same Summary and the same witness.
func sameReport(t *testing.T, want, got *VerifyReport) {
	t.Helper()
	if w, g := reportRecord(t, want), reportRecord(t, got); w != g {
		t.Errorf("report differs:\n--- want\n%s--- got\n%s", w, g)
	}
}

// sameVerdict requires two explorations of one reduction set to agree on
// every verdict field, every state count and the witness; their Summaries
// may differ in the reduction counters.
func sameVerdict(t *testing.T, what string, want, got *VerifyReport) {
	t.Helper()
	if got.Ok != want.Ok || got.Complete != want.Complete || got.WeakBisimilar != want.WeakBisimilar ||
		got.TracesEqual != want.TracesEqual || got.Deadlocks != want.Deadlocks ||
		got.ComposedStates != want.ComposedStates || got.ServiceStates != want.ServiceStates {
		t.Errorf("%s: verdict differs:\n--- want\n%s--- got\n%s", what, want.Summary, got.Summary)
	}
	if w, g := witnessJSON(t, want.Witness), witnessJSON(t, got.Witness); w != g {
		t.Errorf("%s: witness differs:\n--- want\n%s\n--- got\n%s", what, w, g)
	}
}

// withoutReductionLines drops a Summary's reduction counters and fallback
// marker.
func withoutReductionLines(summary string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(summary, "\n") {
		if !strings.HasPrefix(line, "reductions: ") && !strings.HasPrefix(line, "  fallback: ") {
			b.WriteString(line)
		}
	}
	return b.String()
}

// capped reports whether an exploration stopped at the state cap.
func capped(rep *VerifyReport, maxStates int) bool {
	return !rep.Complete && rep.ComposedStates >= maxStates
}

// checkCompositional compares a compositional report with the monolithic
// reference.
func checkCompositional(t *testing.T, mono, comp *VerifyReport, maxStates int) {
	t.Helper()
	if comp.Compositional == nil {
		t.Fatal("compositional cell carries no pipeline stats")
	}
	monoCapped := capped(mono, maxStates)
	if monoCapped {
		if mono.Ok && !comp.Ok {
			t.Errorf("monolithic ok under the cap but compositional failed:\n%s", comp.Summary)
		}
	} else if mono.Ok != comp.Ok || mono.Complete != comp.Complete || mono.WeakBisimilar != comp.WeakBisimilar ||
		mono.TracesEqual != comp.TracesEqual || mono.Deadlocks != comp.Deadlocks {
		t.Errorf("verdict mismatch:\n--- monolithic\n%s--- compositional\n%s", mono.Summary, comp.Summary)
	}
	if comp.Ok {
		return
	}
	if comp.Compositional.Fallback == "" {
		t.Error("failing compositional cell records no fallback reason")
	}
	if mw, cw := witnessJSON(t, mono.Witness), witnessJSON(t, comp.Witness); !monoCapped && mw != cw {
		t.Errorf("witness mismatch:\n--- monolithic\n%s\n--- compositional\n%s", mw, cw)
	}
}

// checkReduction compares a reduced report with the unreduced ground truth.
func checkReduction(t *testing.T, base, rep *VerifyReport, maxStates int) {
	t.Helper()
	if capped(base, maxStates) {
		if base.Ok && !rep.Ok {
			t.Errorf("unreduced ok under the cap but reduced failed:\n%s", rep.Summary)
		}
		return
	}
	if rep.Ok != base.Ok || rep.TracesEqual != base.TracesEqual || rep.Complete != base.Complete {
		t.Errorf("verdict mismatch:\n--- none\n%s--- reduced\n%s", base.Summary, rep.Summary)
	}
	if rep.Complete && base.Complete && rep.WeakBisimilar != base.WeakBisimilar {
		t.Errorf("≈ verdict mismatch: none=%t reduced=%t", base.WeakBisimilar, rep.WeakBisimilar)
	}
	if (rep.Deadlocks == 0) != (base.Deadlocks == 0) {
		t.Errorf("deadlock presence mismatch: none=%d reduced=%d", base.Deadlocks, rep.Deadlocks)
	}
}
