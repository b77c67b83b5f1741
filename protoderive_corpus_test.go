package protoderive

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func corpusFiles(t testing.TB) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("specs", "*.spec"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus specs found: %v", err)
	}
	return files
}

// corruptions are deterministic spec mutations: each takes a corpus source
// and yields a damaged variant. The library's contract is that every
// variant comes back as an error or a success — never a panic (the facade
// guard turns an escaped panic into a marked "internal error", which this
// test also treats as a failure).
var corruptions = []struct {
	name   string
	mutate func(string) string
}{
	{"truncate-half", func(s string) string { return s[:len(s)/2] }},
	{"truncate-three-quarters", func(s string) string { return s[:len(s)/4] }},
	{"drop-endspec", func(s string) string { return strings.Replace(s, "ENDSPEC", "", 1) }},
	{"drop-spec", func(s string) string { return strings.Replace(s, "SPEC", "", 1) }},
	{"drop-semicolons", func(s string) string { return strings.ReplaceAll(s, ";", "") }},
	{"drop-parens", func(s string) string {
		return strings.NewReplacer("(", "", ")", "").Replace(s)
	}},
	{"unbalance-choice", func(s string) string { return strings.Replace(s, "[]", "[", 1) }},
	{"strip-places", func(s string) string {
		return strings.Map(func(r rune) rune {
			if r >= '0' && r <= '9' {
				return -1
			}
			return r
		}, s)
	}},
	{"double-body", func(s string) string { return s + "\n" + s }},
	{"inject-garbage", func(s string) string { return strings.Replace(s, ";", "; \x00\xff>>|[", 1) }},
}

// TestCorpusCorruptionsNeverPanic damages every corpus spec in every
// deterministic way above and runs the result through parse and derive.
func TestCorpusCorruptionsNeverPanic(t *testing.T) {
	for _, file := range corpusFiles(t) {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range corruptions {
			t.Run(filepath.Base(file)+"/"+c.name, func(t *testing.T) {
				damaged := c.mutate(string(src))
				svc, err := ParseService(damaged)
				if err != nil {
					requireNotInternal(t, err)
					return
				}
				if _, err := svc.Derive(); err != nil {
					requireNotInternal(t, err)
				}
			})
		}
	}
}

// TestCorpusErrorsCarryPositions asserts that parse failures over damaged
// corpus specs surface as structured SpecErrors with a usable position —
// the daemon maps these to 400 responses with line/col fields.
func TestCorpusErrorsCarryPositions(t *testing.T) {
	sawPosition := false
	for _, file := range corpusFiles(t) {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		damaged := strings.Replace(string(src), "[]", "[", 1)
		if _, err := ParseService(damaged); err != nil {
			var se *SpecError
			if !errors.As(err, &se) {
				t.Errorf("%s: error is not a *SpecError: %v", filepath.Base(file), err)
				continue
			}
			if se.Line > 0 {
				sawPosition = true
			}
		}
	}
	if !sawPosition {
		t.Error("no damaged corpus spec produced a position-annotated error")
	}
}

func requireNotInternal(t *testing.T, err error) {
	t.Helper()
	if strings.Contains(err.Error(), "internal error") {
		t.Fatalf("recovered panic escaped as error: %v", err)
	}
}
