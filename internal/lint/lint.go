// Package lint implements stepvet, the repo-specific static-analysis
// suite. The simulator's correctness rests on invariants that are cheap
// to state but expensive to re-verify dynamically — byte-identical
// tables across engines and worker counts, lazily materialized names on
// the DES hot path, a thin stateMu in the parallel engine, explicit
// field coverage in Result.Equal, a complete op table. Each
// analyzer is the static certificate that a change *cannot* break one of
// those invariants, run before the expensive determinism-matrix tests.
//
// Findings carry file:line positions and a fix hint. A finding is
// suppressed by a comment of the form
//
//	//lint:allow <analyzer> <reason>
//
// on the same line or the line immediately above; the reason is
// mandatory, so every deliberate exception documents itself. Files may
// opt into the hotpath analyzer with a standalone //lint:hotpath
// comment. Test files are not analyzed: the invariants guard the
// simulator, and tests legitimately use wall clocks and eager strings.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name is the identifier used in findings and suppression comments.
	Name string
	// Doc is the one-line invariant statement shown by `stepvet -list`.
	Doc string
	// AppliesTo filters packages by import path; nil means every package.
	AppliesTo func(pkgPath string) bool
	// Run reports findings for one package through the pass.
	Run func(pass *Pass)
}

// Finding is one reported invariant violation.
type Finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
	Fix      string `json:"fix,omitempty"`
}

// String renders the finding in the canonical text form.
func (f Finding) String() string {
	s := fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
	if f.Fix != "" {
		s += " (fix: " + f.Fix + ")"
	}
	return s
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	findings *[]Finding
}

// Fset returns the pass's position set.
func (p *Pass) Fset() *token.FileSet { return p.Pkg.Fset }

// Files returns the package's parsed files.
func (p *Pass) Files() []*ast.File { return p.Pkg.Files }

// TypesInfo returns the package's type-checker results.
func (p *Pass) TypesInfo() *types.Info { return p.Pkg.Info }

// TypesPkg returns the checked package.
func (p *Pass) TypesPkg() *types.Package { return p.Pkg.Types }

// Reportf records a finding at pos unless a suppression comment covers
// it. fix may be empty.
func (p *Pass) Reportf(pos token.Pos, fix, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	if p.Pkg.suppressed(p.Analyzer.Name, position) {
		return
	}
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
		Fix:      fix,
	})
}

// AllowsIn returns the suppression directives for this pass's analyzer
// whose comment lies within [from, to] in the file containing pos.
// Analyzers with region-scoped suppressions (equalfields allows listing
// excluded fields anywhere inside the Equal body) match on the reason
// text themselves.
func (p *Pass) AllowsIn(pos token.Pos, from, to int) []Allow {
	file := p.Pkg.Fset.Position(pos).Filename
	var out []Allow
	for _, a := range p.Pkg.allows[file] {
		if a.Analyzer == p.Analyzer.Name && a.Line >= from && a.Line <= to {
			out = append(out, a)
		}
	}
	return out
}

// Allow is one parsed //lint:allow directive.
type Allow struct {
	Analyzer string
	Reason   string
	Line     int
}

// Run executes the analyzers over the packages and returns the sorted,
// unsuppressed findings. Malformed or unknown-analyzer suppression
// comments are themselves reported (as analyzer "suppression"), so a
// typo cannot silently disable a check.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var findings []Finding
	for _, pkg := range pkgs {
		for _, bad := range pkg.malformed {
			findings = append(findings, bad)
		}
		for _, f := range pkg.allowFindings(known) {
			findings = append(findings, f)
		}
		for _, a := range analyzers {
			if a.AppliesTo != nil && !a.AppliesTo(pkg.Path) {
				continue
			}
			pass := &Pass{Analyzer: a, Pkg: pkg, findings: &findings}
			a.Run(pass)
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return findings
}

// All returns the full analyzer suite, sorted by name.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism,
		EqualFields,
		Hotpath,
		LockDiscipline,
		RegistryComplete,
	}
}

// pathHasSuffix reports whether the import path ends with the given
// package suffix on a path-segment boundary ("step/internal/des" has
// suffix "internal/des" but not "al/des").
func pathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}
