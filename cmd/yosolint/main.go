// Command yosolint runs the repo's static-analysis suite: five custom
// analyzers enforcing the crypto and YOSO invariants the compiler cannot
// check (crypto/rand for secret randomness, handled board errors,
// secretflow's and sidechannel's interprocedural secret taint — two
// policies over one taint run, flagging disclosures and trace-shaping
// uses — and zeroize's secret-buffer wiping). The codec rule for the
// types that cross the board is a subtest of TestStructuralRules
// (rules_test.go), not an analyzer.
//
// Usage:
//
//	go run ./cmd/yosolint [-list] [-json] [-sarif=FILE] [packages]
//
// Packages default to ./... relative to the current directory; _test.go
// files are analyzed too. The exit status is 0 when the tree is clean, 1
// when any unsuppressed diagnostic (including a malformed //yosolint:
// directive) is reported, and 2 on load or internal errors.
//
// -list prints the analyzers and exits. -json emits one JSON object per
// diagnostic per line, including suppressed findings with the
// justification of the directive covering them, for CI artifact upload
// and audit (`-json | jq 'select(.suppressed)'` lists the active escape
// hatches). -sarif writes a SARIF 2.1.0 log for GitHub code scanning
// (suppressed findings carry inSource suppressions). See
// docs/STATIC_ANALYSIS.md for the analyzer catalogue and the directive
// syntax.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"yosompc/internal/analysis"
	"yosompc/internal/analysis/suite"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit one JSON diagnostic per line, including suppressed findings")
	sarifOut := flag.String("sarif", "", "write a SARIF 2.1.0 log to this file (for GitHub code scanning)")
	flag.Parse()

	analyzers := suite.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	// Deps:true feeds the interprocedural analyzers the summaries and
	// secret-type annotations of in-module dependencies even when the
	// pattern names a single package.
	pkgs, err := analysis.Load(analysis.LoadConfig{Tests: true, Deps: true}, flag.Args()...)
	if err != nil {
		fatal(err)
	}
	diags, err := analysis.RunPackages(pkgs, analyzers)
	if err != nil {
		fatal(err)
	}
	if *sarifOut != "" {
		if err := writeSARIF(*sarifOut, diags, analyzers); err != nil {
			fatal(err)
		}
	}

	failing := analysis.Unsuppressed(diags)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		for _, d := range diags {
			rec := jsonDiagnostic{
				File:          relPath(d.Pos.Filename),
				Line:          d.Pos.Line,
				Column:        d.Pos.Column,
				Analyzer:      d.Analyzer,
				Message:       d.Message,
				Suppressed:    d.Suppressed,
				Justification: d.Justification,
			}
			if err := enc.Encode(rec); err != nil {
				fatal(err)
			}
		}
	} else {
		for _, d := range failing {
			fmt.Printf("%s:%d:%d: %s (%s)\n", relPath(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
		}
	}
	if len(failing) > 0 {
		fmt.Fprintf(os.Stderr, "yosolint: %d finding(s)\n", len(failing))
		os.Exit(1)
	}
}

// fatal reports a load or internal error and exits 2.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "yosolint:", err)
	os.Exit(2)
}

// jsonDiagnostic is the -json line format: one diagnostic per line, with
// suppressed findings carrying the justification of their directive.
type jsonDiagnostic struct {
	File          string `json:"file"`
	Line          int    `json:"line"`
	Column        int    `json:"column"`
	Analyzer      string `json:"analyzer"`
	Message       string `json:"message"`
	Suppressed    bool   `json:"suppressed"`
	Justification string `json:"justification,omitempty"`
}

// writeSARIF serializes the full diagnostic set (suppressed findings
// included, carrying their suppressions) and re-validates the bytes
// before they land on disk, so a malformed log fails the run rather than
// the code-scanning upload.
func writeSARIF(path string, diags []analysis.Diagnostic, analyzers []*analysis.Analyzer) error {
	cwd, _ := os.Getwd()
	data, err := json.MarshalIndent(analysis.NewSARIF(diags, analyzers, cwd), "", "  ")
	if err != nil {
		return err
	}
	if err := analysis.ValidateSARIF(data); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// relPath renders a filename relative to the working directory when it
// lies beneath it.
func relPath(name string) string {
	cwd, err := os.Getwd()
	if err != nil {
		return name
	}
	if rel, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return name
}
