package analysis

import (
	"fmt"
	"sort"
)

// RunPackages runs every analyzer over the load, applies //yosolint:
// directive suppression, and returns the diagnostics sorted by position.
// Suppressed diagnostics are returned too, flagged Suppressed with the
// directive's justification attached, so drivers can audit the active
// escape hatches; callers deciding pass/fail must filter them out.
// Malformed directives (a name no registered analyzer honors, or a missing
// justification) are themselves reported, under the pseudo-analyzer name
// "yosolint".
//
// Every analyzer gets one Pass over the whole load, in dependency order,
// and all of them share one Memo. Packages loaded only as dependency context (Package.DepOnly) feed the
// interprocedural analyzers summaries but are neither directive-validated
// nor reported against (Pass.Targets excludes them).
func RunPackages(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	honored := honoredDirectives(analyzers)
	pass := Pass{Packages: pkgs, memo: map[any]any{}}
	idx := directiveIndex{}
	var all []Diagnostic
	for _, pkg := range pkgs {
		if pkg.DepOnly {
			continue
		}
		pass.Fset = pkg.Fset
		pass.Targets = append(pass.Targets, pkg)
		pkgIdx, dirDiags := indexDirectives(pkg, honored)
		all = append(all, dirDiags...)
		for file, byLine := range pkgIdx {
			idx[file] = byLine
		}
	}

	for _, a := range analyzers {
		var found []Diagnostic
		p := pass
		p.Analyzer = a
		p.report = func(d Diagnostic) { found = append(found, d) }
		if err := a.Run(&p); err != nil {
			return nil, fmt.Errorf("analysis: %s: %w", a.Name, err)
		}
		all = append(all, applySuppression(idx, a, found)...)
	}

	sort.SliceStable(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return all, nil
}

// Unsuppressed filters diags down to the findings that should fail a run.
func Unsuppressed(diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}

// applySuppression marks each diagnostic covered by a directive for a.
func applySuppression(idx directiveIndex, a *Analyzer, found []Diagnostic) []Diagnostic {
	for i, d := range found {
		if dir := idx.suppressing(a, d); dir != nil {
			found[i].Suppressed = true
			found[i].Justification = dir.Reason
		}
	}
	return found
}

// honoredDirectives is the union of the registered analyzers' Directives
// and Markers — the set of //yosolint: names that are not "unknown".
func honoredDirectives(analyzers []*Analyzer) map[string]bool {
	out := map[string]bool{}
	for _, a := range analyzers {
		for _, name := range a.Directives {
			out[name] = true
		}
		for _, name := range a.Markers {
			out[name] = true
		}
	}
	return out
}
