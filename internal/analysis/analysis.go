// Package analysis is a small, dependency-free static-analysis framework
// modelled on golang.org/x/tools/go/analysis. The toolchain image this
// repository builds in carries no third-party modules, so the framework is
// implemented directly on the standard library: packages are discovered
// and compiled with `go list -export`, dependencies are imported from the
// build cache's export data via go/importer, and target packages are
// type-checked from source with go/types.
//
// The framework exists to host yosolint, the suite of repo-specific
// analyzers listed in internal/analysis/suite that enforce invariants the
// Go compiler cannot: secret randomness comes from crypto/rand,
// board/transport errors are never silently dropped, secrets neither leak
// nor steer the execution trace, and so on. (What a type can hold, a type
// holds: field.Element is opaque, so raw arithmetic on it does not compile.)
//
// There is one way through it: Load type-checks the packages, RunPackages
// hands every analyzer the same Pass over the whole load, and the helpers
// the analyzers share — callee resolution, expression keys, test-file and
// package-path classification — live here (astutil.go), once.
//
// Diagnostics can be suppressed per line with //yosolint: directives (see
// ParseDirectives and docs/STATIC_ANALYSIS.md).
package analysis

import (
	"fmt"
	"go/token"
)

// Analyzer is one named check over a load of type-checked packages.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, e.g. "cryptorand".
	Name string
	// Doc is a short description of the invariant the analyzer enforces.
	Doc string
	// Directives lists the //yosolint: directive names that suppress this
	// analyzer's diagnostics when present on the offending line. Every
	// analyzer should include "ignore"; analyzers with a domain-specific
	// escape hatch (e.g. cryptorand's "simulation", secretflow's
	// "declassify") list it here too.
	Directives []string
	// Markers lists //yosolint: directive names the analyzer consumes as
	// source annotations rather than suppressions (e.g. secretflow's
	// "secret"). They never suppress anything, but registering them here
	// keeps the runner's unknown-directive validation in sync with what
	// the suite actually honors.
	Markers []string
	// Run executes the analyzer once over the whole load, reporting
	// findings through the pass.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one whole Load.
type Pass struct {
	// Analyzer is the analyzer being run.
	Analyzer *Analyzer
	// Fset maps positions for every file of every package of the load.
	Fset *token.FileSet
	// Packages are the loaded packages in dependency order, dependencies
	// first, including packages loaded only as dependency context
	// (Package.DepOnly). Interprocedural analyzers walk all of them to
	// build bottom-up summaries and collect //yosolint:secret marks.
	Packages []*Package
	// Targets are the packages to report against: Packages minus the
	// DepOnly ones. Package-at-a-time analyzers loop over these.
	Targets []*Package

	report func(Diagnostic)
}

// Reportf reports a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, with its position already resolved.
type Diagnostic struct {
	// Analyzer names the analyzer that produced the finding.
	Analyzer string
	// Pos locates the finding.
	Pos token.Position
	// Message describes the violation.
	Message string
	// Suppressed records that a //yosolint: directive on the finding's
	// line covers it. Suppressed findings do not fail a lint run but are
	// preserved so drivers can audit the active escape hatches (the
	// cmd/yosolint -json output includes them with their justification).
	Suppressed bool
	// Justification is the directive's mandatory reason when Suppressed.
	Justification string
}

// String formats the diagnostic in the conventional file:line:col style.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}
