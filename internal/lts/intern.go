package lts

// Label interning and compressed-sparse-row (CSR) graph export: the
// substrate of the integer equivalence engine in internal/equiv. Labels
// synchronize (and compare, for bisimulation) by their Key() string; the
// equivalence checker compares them millions of times per run, so it works
// on dense integer ids from a LabelTable instead, and walks edges through
// flat offset/label/target arrays instead of per-state slices of structs.

// LabelID is a dense integer id for a label key, assigned by a LabelTable.
// Two labels carry the same LabelID exactly when their Key() strings are
// equal, i.e. when they are equal for synchronization and bisimulation
// purposes.
type LabelID int32

// LabelTable interns label keys into dense LabelIDs. The zero value is not
// ready; use NewLabelTable. A table may be shared across several graphs so
// their CSR exports speak the same id space (that is how the equivalence
// checker compares two graphs). Not safe for concurrent interning.
type LabelTable struct {
	ids    map[string]LabelID
	labels []Label // representative label per id, for rendering
	// buf is the scratch key an event is looked up by, so Intern
	// allocates only keys it has not seen; constID holds id+1 of the
	// internal and δ labels once interned (their keys are constant).
	buf     []byte
	constID [3]LabelID
}

// NewLabelTable returns an empty interning table.
func NewLabelTable() *LabelTable {
	return &LabelTable{ids: make(map[string]LabelID, 16)}
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

// Key returns the canonical key string interned under id — the
// content-derived total order the FSM compiler sorts minimized transition
// rows by, so compiled tables are reproducible independently of exploration
// and interning order.
func (t *LabelTable) Key(id LabelID) string { return t.labels[id].Key() }

// Observable reports whether id was interned from an observable label.
func (t *LabelTable) Observable(id LabelID) bool { return t.labels[id].Observable() }

// Len returns the number of distinct interned keys.
func (t *LabelTable) Len() int { return len(t.labels) }

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

// ExportCSR flattens the graph's edges into CSR form, interning every label
// through t (shared tables give a shared id space across graphs).
func (g *Graph) ExportCSR(t *LabelTable) *CSR {
	n := g.NumStates()
	m := g.NumTransitions()
	c := &CSR{
		NumStates: n,
		Off:       make([]int32, n+1),
		Labels:    make([]LabelID, 0, m),
		To:        make([]int32, 0, m),
	}
	for s := 0; s < n; s++ {
		for _, e := range g.Edges[s] {
			c.Labels = append(c.Labels, t.Intern(e.Label))
			c.To = append(c.To, int32(e.To))
		}
		c.Off[s+1] = int32(len(c.To))
	}
	return c
}
