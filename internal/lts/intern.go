package lts

// Label interning and compressed-sparse-row (CSR) graph export.
//
// An explored graph is pointer-free: an Edge is a LabelID and a target
// state, 8 bytes, and the graph carries the labels its ids stand for as its
// Alphabet. Every source that hands the explorer transitions interns their
// labels into a graph table (NewGraphTable) whose ids 0 and 1 are the
// internal action and δ, so an edge tells an internal step and termination
// by its id alone. The other ids follow interning order — which depends on
// exploration order, and for a shared table on every earlier exploration —
// so nothing orders or renders by id: traces, moves and minimized rows sort
// by the rendered label or its key.
//
// Labels synchronize (and compare, for bisimulation) by their Key() string.
// The equivalence checker compares two graphs with different alphabets, so
// it re-interns both into one shared id space (NewLabelTable, ExportCSR)
// and walks edges through flat offset/label/target arrays instead of
// per-state slices.

// LabelID is a dense integer id for a label key, assigned by a LabelTable.
// Two labels carry the same LabelID exactly when their Key() strings are
// equal, i.e. when they are equal for synchronization and bisimulation
// purposes.
type LabelID int32

// The ids a graph table reserves: every graph's alphabet starts with the
// internal action and δ.
const (
	InternalID LabelID = 0
	DeltaID    LabelID = 1
)

// LabelTable interns label keys into dense LabelIDs. The zero value is not
// ready; use NewLabelTable or NewGraphTable. A table may be shared across
// several graphs so their ids speak one space. Not safe for concurrent
// interning; a caller that interns under a lock may hand out Alphabet
// snapshots that stay readable while later interning goes on.
type LabelTable struct {
	ids    map[string]LabelID
	labels []Label // representative label per id, for rendering
	// buf is the scratch key an event is looked up by, so Intern
	// allocates only keys it has not seen; constID holds id+1 of the
	// internal and δ labels once interned (their keys are constant).
	buf     []byte
	constID [3]LabelID
}

// NewLabelTable returns an empty interning table, whose ids follow
// interning order from 0.
func NewLabelTable() *LabelTable {
	return &LabelTable{ids: make(map[string]LabelID, 16)}
}

// NewGraphTable returns a table for the ids a graph's edges carry:
// InternalID and DeltaID are interned first.
func NewGraphTable() *LabelTable {
	t := NewLabelTable()
	t.Intern(Internal())
	t.Intern(Delta())
	return t
}

// Intern returns the dense id of l's key, assigning the next free id on
// first sight. Distinct labels sharing a key (a tagged message ignores
// Node and Occ) share the id and the first one's representative.
func (t *LabelTable) Intern(l Label) LabelID {
	constant := l.Kind == LInternal || l.Kind == LDelta
	if constant && t.constID[l.Kind] > 0 {
		return t.constID[l.Kind] - 1
	}
	t.buf = l.appendKey(t.buf[:0])
	id, ok := t.ids[string(t.buf)]
	if !ok {
		id = LabelID(len(t.labels))
		t.ids[string(t.buf)] = id
		t.labels = append(t.labels, l)
	}
	if constant {
		t.constID[l.Kind] = id + 1
	}
	return id
}

// InternKey interns a bare key with no representative label (used for
// pseudo-labels such as the equivalence checker's ε row). The returned id
// renders through Label as an internal action.
func (t *LabelTable) InternKey(key string) LabelID {
	if id, ok := t.ids[key]; ok {
		return id
	}
	id := LabelID(len(t.labels))
	t.ids[key] = id
	t.labels = append(t.labels, Label{Kind: LInternal})
	return id
}

// Label returns the representative label first interned under id.
func (t *LabelTable) Label(id LabelID) Label { return t.labels[id] }

// Observable reports whether id was interned from an observable label.
func (t *LabelTable) Observable(id LabelID) bool { return t.labels[id].Observable() }

// Len returns the number of distinct interned keys.
func (t *LabelTable) Len() int { return len(t.labels) }

// Alphabet returns the representative label of every id interned so far,
// indexed by id: a graph's Alphabet. Interning only appends, so the
// snapshot never changes, and it stays safe to read while the table, under
// its owner's lock, interns more.
func (t *LabelTable) Alphabet() []Label {
	return t.labels[:len(t.labels):len(t.labels)]
}

// CSR is a compressed-sparse-row view of a Graph's transitions: the edges
// of state s are the parallel Labels/To entries in [Off[s], Off[s+1]), in
// the graph's derivation order. Labels are interned through the exporting
// LabelTable.
type CSR struct {
	// NumStates is the number of states (len(Off)-1).
	NumStates int
	// Off has NumStates+1 entries; Off[0] = 0.
	Off []int32
	// Labels holds the interned label of each edge.
	Labels []LabelID
	// To holds the target state of each edge.
	To []int32
}

// ExportCSR flattens the graph's edges into CSR form over t's id space
// (shared tables give a shared id space across graphs). It interns each
// label of the graph's alphabet once, on its first edge in derivation
// order, so t assigns its ids in the order it would interning every edge.
func (g *Graph) ExportCSR(t *LabelTable) *CSR {
	n := g.NumStates()
	m := g.NumTransitions()
	c := &CSR{
		NumStates: n,
		Off:       make([]int32, n+1),
		Labels:    make([]LabelID, 0, m),
		To:        make([]int32, 0, m),
	}
	remap := make([]LabelID, len(g.Alphabet)) // graph id -> t's id + 1, 0 until interned
	for s := 0; s < n; s++ {
		for _, e := range g.Edges[s] {
			id := remap[e.Label]
			if id == 0 {
				id = t.Intern(g.Alphabet[e.Label]) + 1
				remap[e.Label] = id
			}
			c.Labels = append(c.Labels, id-1)
			c.To = append(c.To, e.To)
		}
		c.Off[s+1] = int32(len(c.To))
	}
	return c
}
