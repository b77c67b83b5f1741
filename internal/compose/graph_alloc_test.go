//go:build !race

// The race detector changes allocation counts, so this file is left out of
// race builds.

package compose

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/lts"
)

// TestEdgeLayout pins the explored graph's edge record: 8 bytes, a label id
// and a target, with no pointer for the collector to scan.
func TestEdgeLayout(t *testing.T) {
	if size := unsafe.Sizeof(lts.Edge{}); size != 8 {
		t.Errorf("lts.Edge is %d bytes, want 8", size)
	}
	if path, ok := pointerField(reflect.TypeOf(lts.Edge{}), "Edge"); ok {
		t.Errorf("lts.Edge holds a pointer at %s", path)
	}
}

// pointerField reports the first field of typ, walked recursively, whose
// kind holds a pointer, and its path from name.
func pointerField(typ reflect.Type, name string) (string, bool) {
	switch typ.Kind() {
	case reflect.Struct:
		for i := range typ.NumField() {
			f := typ.Field(i)
			if path, ok := pointerField(f.Type, name+"."+f.Name); ok {
				return path, true
			}
		}
		return "", false
	case reflect.Array:
		return pointerField(typ.Elem(), name+"[]")
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.String,
		reflect.Interface, reflect.Chan, reflect.Func:
		return name, true
	}
	return "", false
}

// warmCellBytesPerState bounds what one check on a warm Verifier allocates
// per product state, witness and trace diff included.
const warmCellBytesPerState = 500

// TestWarmCellBytesPerState runs one fault-matrix cell, example5 at
// capacity 2 under duplication (2,674 product states, a failed verdict with
// a witness), on a warm Verifier and bounds the bytes the check allocates
// per product state: the edges are 8-byte records, and the explorer is
// presized from the last product of the same configuration.
func TestWarmCellBytesPerState(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "specs", "example5.spec"))
	if err != nil {
		t.Fatal(err)
	}
	d := mustDerive(t, string(src))
	v := NewVerifier(d.Service.Spec, d.Entities, nil)
	opts := VerifyOptions{ObsDepth: 4, MaxStates: 20000, ChannelCap: 2, Faults: FaultModel{Duplication: true}}
	r, err := v.Verify(opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Ok() || r.Witness == nil {
		t.Fatalf("example5 cap2/dup verified ok=%v witness=%v, want a failed verdict with a witness", r.Ok(), r.Witness != nil)
	}
	states := r.ComposedGraph.NumStates()
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if _, err := v.Verify(opts); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perState := float64(after.TotalAlloc-before.TotalAlloc) / float64(runs*states)
	t.Logf("%d product states, %.0f bytes allocated per state", states, perState)
	if perState > warmCellBytesPerState {
		t.Errorf("a warm check allocates %.0f bytes per product state, want at most %d", perState, warmCellBytesPerState)
	}
}
