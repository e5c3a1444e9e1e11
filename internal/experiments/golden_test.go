package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"step/internal/scenario"
)

// update rewrites the golden files instead of asserting against them:
//
//	go test ./internal/experiments -run TestGoldenArtifacts -update
var update = flag.Bool("update", false, "rewrite testdata/golden files")

func goldenPath(id string) string {
	return filepath.Join("testdata", "golden", id+".txt")
}

// pinnedHere reports whether this package owns the golden file of a
// registry artifact. Artifacts that are canned scenario specs are
// pinned by internal/scenario's golden tests instead.
func pinnedHere(id string) bool {
	_, isSpec := scenario.LookupBuiltin(id)
	return !isSpec
}

// TestGoldenArtifacts pins the rendered table of every registry
// artifact that is not a canned scenario spec (quick mode, seed 7) to a
// committed file, so a bug both DES engines share cannot pass as
// determinism. For an intended output change, re-render with -update
// and review the diff like any other code change.
func TestGoldenArtifacts(t *testing.T) {
	for _, r := range All() {
		r := r
		if !pinnedHere(r.ID) {
			continue
		}
		t.Run(r.ID, func(t *testing.T) {
			t.Parallel()
			tb, err := r.Run(quickSuite())
			if err != nil {
				t.Fatal(err)
			}
			got := tb.String()
			path := goldenPath(r.ID)
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("no golden file for %s (render with -update): %v", r.ID, err)
			}
			if got != string(want) {
				t.Errorf("table diverges from %s:\n%s", path, firstDiff(string(want), got))
			}
		})
	}
}

// TestGoldenFilesMatchRegistry fails when a golden file outlives its
// artifact, or pins an artifact whose golden lives in internal/scenario.
func TestGoldenFilesMatchRegistry(t *testing.T) {
	if *update {
		t.Skip("golden files are being rewritten")
	}
	files, err := filepath.Glob(goldenPath("*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no golden files committed")
	}
	for _, f := range files {
		id := strings.TrimSuffix(filepath.Base(f), ".txt")
		if _, ok := Lookup(id); !ok || !pinnedHere(id) {
			t.Errorf("golden file %s has no registry artifact pinned here", f)
		}
	}
}

// firstDiff reports the first differing line of two renderings.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		wl, gl := "<eof>", "<eof>"
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n golden: %s\n    got: %s", i+1, wl, gl)
		}
	}
	return "(no line diff — lengths differ)"
}
