package lint

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden finding files")

// loadFixture type-checks one fixture directory under the given import
// path. Each load gets a fresh Loader because bad and good fixtures
// present different sources under the same path.
func loadFixture(t *testing.T, dir, importAs string) *Package {
	t.Helper()
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDirAs(dir, importAs)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// render formats findings with paths reduced to base names so goldens
// are independent of the checkout location.
func render(findings []Finding) string {
	var b strings.Builder
	for _, f := range findings {
		f.File = filepath.Base(f.File)
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	return b.String()
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".txt")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("findings mismatch (run with -update after intended changes):\ngot:\n%swant:\n%s", got, want)
	}
}

// TestAnalyzerFixtures proves each analyzer fires on its seeded bad
// fixture (pinned by a golden file) and stays silent on the good one.
func TestAnalyzerFixtures(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		importAs string
		fixture  string // fixture directory and golden name; the analyzer's name if empty
	}{
		{Determinism, "step/internal/workloads", ""},
		{Determinism, "step/internal/workloads", "globalstate"},
		{LockDiscipline, "step/internal/des", ""},
		{Hotpath, "step/internal/hot", ""},
		{EqualFields, "step/internal/graph", ""},
		{RegistryComplete, "step/internal/ops", ""},
		{RegistryComplete, "step/internal/ops", "registrycomplete_fns"},
	}
	for _, c := range cases {
		if c.fixture == "" {
			c.fixture = c.analyzer.Name
		}
		t.Run(c.fixture, func(t *testing.T) {
			base := filepath.Join("testdata", "src", c.fixture)
			bad := loadFixture(t, filepath.Join(base, "bad"), c.importAs)
			findings := Run([]*Package{bad}, []*Analyzer{c.analyzer})
			if len(findings) == 0 {
				t.Fatalf("%s reported nothing on its bad fixture", c.analyzer.Name)
			}
			checkGolden(t, c.fixture, render(findings))

			good := loadFixture(t, filepath.Join(base, "good"), c.importAs)
			if clean := Run([]*Package{good}, []*Analyzer{c.analyzer}); len(clean) != 0 {
				t.Errorf("%s flagged the good fixture:\n%s", c.analyzer.Name, render(clean))
			}
		})
	}
}

// TestSuppression proves a well-formed //lint:allow silences a finding,
// while malformed or unknown-analyzer directives are findings
// themselves (and suppress nothing).
func TestSuppression(t *testing.T) {
	allowed := loadFixture(t, filepath.Join("testdata", "src", "suppression", "allowed"), "step/internal/workloads")
	if findings := Run([]*Package{allowed}, All()); len(findings) != 0 {
		t.Errorf("valid suppression did not silence the finding:\n%s", render(findings))
	}

	malformed := loadFixture(t, filepath.Join("testdata", "src", "suppression", "malformed"), "step/internal/workloads")
	findings := Run([]*Package{malformed}, All())
	checkGolden(t, "suppression", render(findings))
}

// TestRepoClean is the self-cleanliness gate: the full analyzer suite
// over the whole module must report nothing. Every deliberate exception
// is a //lint:allow with a reason, so this test failing means either a
// real invariant violation or an undocumented exception.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short runs")
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(pkgs, All())
	for _, f := range findings {
		t.Error(f.String())
	}
}
