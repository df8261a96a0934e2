package zeroize

import (
	"go/types"
	"strings"
	"testing"

	"yosompc/internal/analysis"
	"yosompc/internal/analysis/analysistest"
)

// TestFixtures runs the analyzer over the lifetime fixture: drops, the
// wipe forms, defer coverage of exit paths, ownership transfers, unbound
// source calls, and the append-style codecs' plaintext scratch.
func TestFixtures(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), Analyzer, "sharing")
}

// TestBuiltinSourceFuncsSync type-checks the package behind every builtin
// source key and asserts the method still exists with that receiver: a
// codec rename must fail here, not silently stop tracking the plaintext
// scratch.
func TestBuiltinSourceFuncsSync(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the codec package")
	}
	loaded := map[string][]*analysis.Package{} // by package path
	for key := range BuiltinSourceFuncs {
		// Keys are pkgpath.RecvType.Method (taint.FuncKey form).
		parts := strings.Split(key, ".")
		if len(parts) < 3 {
			t.Fatalf("malformed builtin key %q", key)
		}
		path, recv, method := strings.Join(parts[:len(parts)-2], "."), parts[len(parts)-2], parts[len(parts)-1]
		if loaded[path] == nil {
			pkgs, err := analysis.Load(analysis.LoadConfig{Dir: "../../.."}, "./"+strings.TrimPrefix(path, "yosompc/"))
			if err != nil {
				t.Fatal(err)
			}
			loaded[path] = pkgs
		}
		found := false
		for _, pkg := range loaded[path] {
			if pkg.Types.Path() != path {
				continue
			}
			tn, ok := pkg.Types.Scope().Lookup(recv).(*types.TypeName)
			if !ok {
				t.Errorf("builtin source receiver %s.%s no longer exists", path, recv)
				continue
			}
			m, _, _ := types.LookupFieldOrMethod(tn.Type(), true, pkg.Types, method)
			if _, found = m.(*types.Func); !found {
				t.Errorf("builtin source %s.%s has no method %s", path, recv, method)
			}
		}
		if !found {
			t.Errorf("builtin source %s did not resolve", key)
		}
	}
}
