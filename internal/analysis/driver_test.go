package analysis_test

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestRepoIsClean is the self-check the CI lint job depends on: the
// whole repository must pass its own invariant suite. A failure here
// means a change reintroduced a violation (or an analyzer grew a false
// positive — either way, it must be resolved, with //vet:allow and a
// reason if the site is legitimate).
func TestRepoIsClean(t *testing.T) {
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.CheckModule(root, []string{"./..."}, analysis.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestBadModuleFails keeps the driver honest: a fixture module with a
// seeded violation must produce findings. Without this, a loader or
// scope regression could make vectorio-vet silently pass everything and
// CI would keep going green.
func TestBadModuleFails(t *testing.T) {
	badmod, err := filepath.Abs(filepath.Join("testdata", "badmod"))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.CheckModule(badmod, []string{"./..."}, analysis.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) == 0 {
		t.Fatal("vectorio-vet found nothing in testdata/badmod; the driver is passing everything")
	}
	found := false
	for _, d := range diags {
		if d.Analyzer == "wallclock" && strings.Contains(d.Message, "time.Now") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected a wallclock time.Now finding in badmod, got: %v", diags)
	}
}

// TestExpandPatterns pins the driver's pattern semantics: recursive
// expansion skips testdata (fixtures with seeded violations must never
// leak into a real ./... run) and resolves explicit directories.
func TestExpandPatterns(t *testing.T) {
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	rels, err := analysis.ExpandPatterns(root, "repro", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]bool, len(rels))
	for _, r := range rels {
		got[r] = true
		if strings.Contains(r, "testdata") {
			t.Errorf("pattern expansion leaked a testdata package: %s", r)
		}
	}
	for _, want := range []string{"internal/core", "internal/analysis", "cmd/vectorio-vet", "vectorio"} {
		if !got[want] {
			t.Errorf("./... did not match %s (got %d packages)", want, len(rels))
		}
	}
	// perfbench is a nested module: its own pattern matches it, ./... does
	// not.
	if got["perfbench"] {
		t.Error("./... matched the nested perfbench module")
	}
	if nested, err := analysis.ExpandPatterns(root, "repro", []string{"./perfbench/..."}); err != nil || len(nested) != 1 || nested[0] != "perfbench" {
		t.Errorf("./perfbench/... expanded to %v, %v", nested, err)
	}

	one, err := analysis.ExpandPatterns(root, "repro", []string{"./internal/core"})
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || one[0] != "internal/core" {
		t.Errorf("./internal/core expanded to %v", one)
	}
}
