package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Path is the package import path. External test packages get the
	// conventional "_test" suffix appended.
	Path string
	// Name is the package name.
	Name string
	// Dir is the directory holding the package sources.
	Dir string
	// Fset is shared by all packages of one Load call.
	Fset *token.FileSet
	// Files are the parsed sources, in load order.
	Files []*ast.File
	// Sources holds the raw bytes of each file, keyed by filename, for
	// line-layout queries (directive placement).
	Sources map[string][]byte
	// Types is the type-checked package.
	Types *types.Package
	// Info records type and object resolution for Files.
	Info *types.Info
	// DepOnly marks a package loaded from source only as dependency
	// context for the interprocedural analyzers (LoadConfig.Deps). DepOnly
	// packages supply call-graph summaries and //yosolint:secret
	// annotations but are not themselves analyzed or directive-validated.
	DepOnly bool
}

// LoadConfig controls Load.
type LoadConfig struct {
	// Dir is the working directory for go list invocations — normally the
	// module root. Empty means the current directory.
	Dir string
	// Tests includes _test.go files: in-package test files are merged into
	// their package, and external (package foo_test) files become a
	// separate Package with an import path suffixed "_test".
	Tests bool
	// Deps additionally loads the targets' non-standard-library
	// dependencies from source, marked Package.DepOnly, so interprocedural
	// analyses can compute bottom-up summaries for helper packages that
	// the patterns did not match (`go list -deps` emits dependencies
	// before their importers, and Load preserves that order).
	Deps bool
}

// listedPkg is the subset of `go list -json` output the loader consumes.
type listedPkg struct {
	ImportPath   string
	Name         string
	Dir          string
	Export       string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Standard     bool
	DepOnly      bool
	ForTest      string
	Error        *listedError
	DepsErrors   []*listedError
	Incomplete   bool
	Match        []string
	TestImports  []string
	XTestImports []string
}

type listedError struct {
	Pos string
	Err string
}

// Load discovers the packages matching patterns with the go tool,
// type-checks them from source, and returns them ready for analysis.
// Dependencies (including standard-library packages) are imported from
// compiler export data, so a Load costs one `go list -export` walk plus
// parsing and checking only the target packages themselves.
func Load(cfg LoadConfig, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := []string{"list", "-e", "-export", "-deps", "-json"}
	if cfg.Tests {
		// -test adds the test variants, whose dependency closure covers
		// imports that appear only in _test.go files (testing, os/exec, …).
		args = append(args, "-test")
	}
	args = append(args, "--")
	args = append(args, patterns...)
	listed, err := goList(cfg.Dir, args...)
	if err != nil {
		return nil, err
	}

	exports := map[string]string{}
	var targets []*listedPkg
	seen := map[string]bool{}
	nTargets := 0
	for _, p := range listed {
		if p.Export != "" {
			if _, ok := exports[p.ImportPath]; !ok {
				exports[p.ImportPath] = p.Export
			}
		}
		// Test variants ("foo [foo.test]", ForTest set) and synthesized
		// test binaries ("foo.test") are never loaded directly.
		if p.ForTest != "" || strings.HasSuffix(p.ImportPath, ".test") {
			continue
		}
		if p.DepOnly {
			// Dependencies are loaded from source only when requested,
			// and only module-local ones: the standard library has no
			// yosolint annotations, and its sources may not parse with
			// the framework's plain go/parser configuration. A broken or
			// fileless dependency is silently skipped — its importers
			// still type-check from export data.
			if !cfg.Deps || p.Standard || p.Error != nil || len(p.GoFiles) == 0 || seen[p.ImportPath] {
				continue
			}
			seen[p.ImportPath] = true
			pp := p
			targets = append(targets, &pp)
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("analysis: loading %s: %s", p.ImportPath, p.Error.Err)
		}
		if len(p.GoFiles) == 0 && !(cfg.Tests && (len(p.TestGoFiles) > 0 || len(p.XTestGoFiles) > 0)) {
			continue
		}
		if seen[p.ImportPath] {
			continue
		}
		seen[p.ImportPath] = true
		nTargets++
		pp := p
		targets = append(targets, &pp)
	}
	if nTargets == 0 {
		return nil, fmt.Errorf("analysis: no packages matched %v", patterns)
	}

	fset := token.NewFileSet()
	imp := newExportImporter(fset, cfg.Dir, exports)

	var out []*Package
	for _, t := range targets {
		files := append([]string{}, t.GoFiles...)
		if cfg.Tests && !t.DepOnly {
			files = append(files, t.TestGoFiles...)
		}
		if len(files) > 0 {
			pkg, err := checkPackage(fset, imp, t.ImportPath, t.Dir, files)
			if err != nil {
				if t.DepOnly {
					continue
				}
				return nil, err
			}
			pkg.DepOnly = t.DepOnly
			out = append(out, pkg)
		}
		if cfg.Tests && !t.DepOnly && len(t.XTestGoFiles) > 0 {
			pkg, err := checkPackage(fset, imp, t.ImportPath+"_test", t.Dir, t.XTestGoFiles)
			if err != nil {
				return nil, err
			}
			out = append(out, pkg)
		}
	}
	return out, nil
}

// checkPackage parses and type-checks one set of files as a package.
func checkPackage(fset *token.FileSet, imp types.Importer, path, dir string, fileNames []string) (*Package, error) {
	var files []*ast.File
	sources := map[string][]byte{}
	for _, name := range fileNames {
		full := filepath.Join(dir, name)
		src, err := os.ReadFile(full)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		f, err := parser.ParseFile(fset, full, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: parsing %s: %w", full, err)
		}
		files = append(files, f)
		sources[full] = src
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var typeErrs []string
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			typeErrs = append(typeErrs, err.Error())
		},
	}
	name := path
	if len(files) > 0 {
		name = files[0].Name.Name
	}
	tpkg, err := conf.Check(path, fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("analysis: type-checking %s:\n\t%s", path, strings.Join(typeErrs, "\n\t"))
	}
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	return &Package{
		Path:    path,
		Name:    name,
		Dir:     dir,
		Fset:    fset,
		Files:   files,
		Sources: sources,
		Types:   tpkg,
		Info:    info,
	}, nil
}

// exportImporter resolves imports from compiler export data files located
// by `go list -export`, falling back to an on-demand go list for paths
// (typically test-only dependencies) missing from the initial walk.
type exportImporter struct {
	dir     string
	exports map[string]string
	gc      types.ImporterFrom
}

func newExportImporter(fset *token.FileSet, dir string, exports map[string]string) *exportImporter {
	e := &exportImporter{dir: dir, exports: exports}
	e.gc = importer.ForCompiler(fset, "gc", e.lookup).(types.ImporterFrom)
	return e
}

func (e *exportImporter) lookup(path string) (io.ReadCloser, error) {
	file, ok := e.exports[path]
	if !ok {
		listed, err := goList(e.dir, "list", "-e", "-export", "-json", "--", path)
		if err != nil {
			return nil, fmt.Errorf("analysis: resolving import %q: %w", path, err)
		}
		for _, p := range listed {
			if p.Export != "" {
				e.exports[p.ImportPath] = p.Export
			}
		}
		file, ok = e.exports[path]
		if !ok {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
	}
	return os.Open(file)
}

func (e *exportImporter) Import(path string) (*types.Package, error) {
	return e.ImportFrom(path, e.dir, 0)
}

func (e *exportImporter) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	return e.gc.ImportFrom(path, srcDir, mode)
}

// goList runs the go tool in dir and decodes its JSON package stream.
func goList(dir string, args ...string) ([]listedPkg, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("analysis: go %s: %w\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var out []listedPkg
	dec := json.NewDecoder(&stdout)
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %w", err)
		}
		out = append(out, p)
	}
	return out, nil
}
