// Package analysistest runs analyzers over fixture packages and checks
// their diagnostics against // want comments, mirroring the interface of
// golang.org/x/tools/go/analysis/analysistest on the repo's stdlib-only
// analysis framework.
//
// Fixtures live under <analyzer package>/testdata/src/<pkg>/ — directories
// named testdata are invisible to ./... wildcards, so fixture violations
// never leak into regular builds or the repo-wide lint run, yet `go list`
// still loads them when named explicitly. A fixture line expecting
// diagnostics carries a trailing comment of the form
//
//	code() // want "first regexp" `second regexp`
//
// where each quoted or backquoted string is a regular expression that must
// match exactly one diagnostic reported on that line; diagnostics not
// matched by any want (and wants not matched by any diagnostic) fail the
// test.
package analysistest

import (
	"fmt"
	"go/ast"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"yosompc/internal/analysis"
)

// TestData returns the absolute path of the calling test's testdata
// directory.
func TestData(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// Run loads each fixture package dir/src/<pkg>, runs the analyzer on it,
// and checks the reported diagnostics against the fixtures' want comments.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		fixture := filepath.Join(dir, "src", pkg)
		// Deps:true source-loads fixture helper packages (and any real
		// module packages the fixture imports) so interprocedural analyzers
		// get cross-package summaries, exactly as the cmd/yosolint driver
		// does.
		loaded, err := analysis.Load(analysis.LoadConfig{Dir: root, Tests: true, Deps: true}, fixture)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", fixture, err)
		}
		diags, err := analysis.RunPackages(loaded, []*analysis.Analyzer{a})
		if err != nil {
			t.Fatalf("running %s on %s: %v", a.Name, fixture, err)
		}
		checkWants(t, loaded, analysis.Unsuppressed(diags))
	}
}

type key struct {
	file string
	line int
}

func checkWants(t *testing.T, pkgs []*analysis.Package, diags []analysis.Diagnostic) {
	t.Helper()
	wants := map[key][]*regexp.Regexp{}
	for _, pkg := range pkgs {
		if pkg.DepOnly {
			continue
		}
		for _, f := range pkg.Files {
			collectWants(t, pkg, f, wants)
		}
	}
	got := map[key][]analysis.Diagnostic{}
	for _, d := range diags {
		k := key{d.Pos.Filename, d.Pos.Line}
		got[k] = append(got[k], d)
	}
	for k, res := range wants {
		actual := got[k]
		for _, re := range res {
			matched := -1
			for i, d := range actual {
				if re.MatchString(d.Message) {
					matched = i
					break
				}
			}
			if matched < 0 {
				t.Errorf("%s:%d: no diagnostic matching %q", k.file, k.line, re)
				continue
			}
			actual = append(actual[:matched], actual[matched+1:]...)
		}
		got[k] = actual
	}
	for k, rest := range got {
		for _, d := range rest {
			t.Errorf("%s:%d: unexpected diagnostic: %s (%s)", k.file, k.line, d.Message, d.Analyzer)
		}
	}
}

var wantRE = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

func collectWants(t *testing.T, pkg *analysis.Package, f *ast.File, wants map[key][]*regexp.Regexp) {
	t.Helper()
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := c.Text
			i := strings.Index(text, "// want ")
			if i < 0 {
				continue
			}
			pos := pkg.Fset.Position(c.Pos())
			k := key{pos.Filename, pos.Line}
			specs := wantRE.FindAllString(text[i+len("// want "):], -1)
			if len(specs) == 0 {
				t.Errorf("%s:%d: malformed want comment: %s", k.file, k.line, text)
				continue
			}
			for _, spec := range specs {
				pattern := spec
				if strings.HasPrefix(spec, "\"") {
					unq, err := strconv.Unquote(spec)
					if err != nil {
						t.Errorf("%s:%d: bad want string %s: %v", k.file, k.line, spec, err)
						continue
					}
					pattern = unq
				} else {
					pattern = strings.Trim(spec, "`")
				}
				re, err := regexp.Compile(pattern)
				if err != nil {
					t.Errorf("%s:%d: bad want regexp %q: %v", k.file, k.line, pattern, err)
					continue
				}
				wants[k] = append(wants[k], re)
			}
		}
	}
}

// moduleRoot walks up from the working directory to the enclosing go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysistest: no go.mod above %s", dir)
		}
		dir = parent
	}
}
