package lint_test

import (
	"path/filepath"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/driver"
)

// TestRepoSweepClean runs the full fdlint suite over the repository and
// requires zero findings — the in-test mirror of the CI `fdlint ./...`
// gate, so a reintroduced violation fails `go test` even before CI.
func TestRepoSweepClean(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole repository")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := driver.Load(root, []string{"./..."})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	diags, err := driver.Run(pkgs, lint.Analyzers())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("finding: %s", d)
	}
}
