package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod found")
		}
		dir = parent
	}
}

// TestLoadTypeChecks loads a real package of the module and verifies the
// loader produced full type information via export-data imports.
func TestLoadTypeChecks(t *testing.T) {
	pkgs, err := Load(LoadConfig{Dir: repoRoot(t)}, "./internal/sharing")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	if pkg.Name != "sharing" {
		t.Errorf("package name = %q, want sharing", pkg.Name)
	}
	if pkg.Types == nil || pkg.Types.Scope().Lookup("SharePacked") == nil {
		t.Error("type-checked scope is missing SharePacked")
	}
	if len(pkg.Info.Uses) == 0 {
		t.Error("no use information recorded")
	}
	// The sharing package's Share.Value field must resolve to the imported
	// field.Element named type, proving export data round-trips types.
	share := pkg.Types.Scope().Lookup("Share")
	if share == nil {
		t.Fatal("Share type missing")
	}
	if !strings.Contains(share.Type().Underlying().String(), "field.Element") {
		t.Errorf("Share underlying = %s, want a field.Element member", share.Type().Underlying())
	}
}

// TestLoadWithTests merges in-package _test.go files when requested.
func TestLoadWithTests(t *testing.T) {
	root := repoRoot(t)
	with, err := Load(LoadConfig{Dir: root, Tests: true}, "./internal/field")
	if err != nil {
		t.Fatal(err)
	}
	without, err := Load(LoadConfig{Dir: root}, "./internal/field")
	if err != nil {
		t.Fatal(err)
	}
	if len(with[0].Files) <= len(without[0].Files) {
		t.Errorf("Tests:true loaded %d files, want more than the %d non-test files",
			len(with[0].Files), len(without[0].Files))
	}
}

// TestParseDirectives covers trailing vs standalone directive placement.
func TestParseDirectives(t *testing.T) {
	src := []byte(`package p

import "math/rand" //yosolint:simulation trailing applies to its own line

//yosolint:ignore standalone applies to the next line
var x = rand.Int()

//yosolint:simulation
var missingReason = 0
`)
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	ds := ParseDirectives(fset, f, src)
	if len(ds) != 3 {
		t.Fatalf("got %d directives, want 3: %+v", len(ds), ds)
	}
	if ds[0].Name != "simulation" || ds[0].Line != 3 || ds[0].Reason == "" {
		t.Errorf("trailing directive parsed as %+v, want simulation on line 3", ds[0])
	}
	if ds[1].Name != "ignore" || ds[1].Line != 6 {
		t.Errorf("standalone directive parsed as %+v, want ignore applying to line 6", ds[1])
	}
	if ds[2].Reason != "" {
		t.Errorf("directive without justification parsed reason %q, want empty", ds[2].Reason)
	}
}

// TestDirectiveValidation verifies malformed directives become findings.
func TestDirectiveValidation(t *testing.T) {
	src := []byte(`package p

//yosolint:simulation
var a = 1

//yosolint:frobnicate because reasons
var b = 2
`)
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &Package{
		Fset:    fset,
		Files:   []*ast.File{f},
		Sources: map[string][]byte{"p.go": src},
	}
	_, diags := indexDirectives(pkg, map[string]bool{"simulation": true})
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2 (missing reason + unknown name): %+v", len(diags), diags)
	}
	var sawReason, sawUnknown bool
	for _, d := range diags {
		if strings.Contains(d.Message, "requires a justifying comment") {
			sawReason = true
		}
		if strings.Contains(d.Message, "unknown //yosolint: directive") {
			sawUnknown = true
		}
	}
	if !sawReason || !sawUnknown {
		t.Errorf("diagnostics missing expected messages: %+v", diags)
	}
}

// TestMemoBuildsOncePerRun pins the per-load memo: every analyzer of one
// RunPackages reads the value the first asker built, and the next
// RunPackages builds afresh.
func TestMemoBuildsOncePerRun(t *testing.T) {
	type key struct{}
	builds := 0
	var seen []*int
	reader := func(name string) *Analyzer {
		return &Analyzer{Name: name, Run: func(p *Pass) error {
			seen = append(seen, Memo(p, key{}, func() *int { builds++; n := builds; return &n }))
			return nil
		}}
	}
	analyzers := []*Analyzer{reader("a"), reader("b"), reader("c")}
	for run := 1; run <= 2; run++ {
		seen = nil
		if _, err := RunPackages(nil, analyzers); err != nil {
			t.Fatal(err)
		}
		if builds != run {
			t.Fatalf("run %d: build called %d times in all, want %d", run, builds, run)
		}
		for i, v := range seen {
			if v != seen[0] || *v != run {
				t.Errorf("run %d: analyzer %d read build %d, want the shared build %d", run, i, *v, run)
			}
		}
	}
}
