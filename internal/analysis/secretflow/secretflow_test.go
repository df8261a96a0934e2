package secretflow

import (
	"fmt"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"yosompc/internal/analysis"
	"yosompc/internal/analysis/analysistest"
	"yosompc/internal/analysis/taint"
)

// TestFixtures runs the disclosure policy over its seven leak-class
// fixtures: direct sink, sink inside a helper, struct embedding + channel
// erasure, justified declassification, the encrypt-then-post clean path,
// telemetry emitters (span attributes, metric names and samples), and the
// pinned modelling blind spots (closure captures caught, calls through
// function/method values not).
func TestFixtures(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), Analyzer,
		"direct", "helper", "chanembed", "declass", "transport", "telemetrysink", "blindspot")
}

// TestSideChannelFixtures runs the trace policy over its fixture packages:
// the four sink classes with their clean counterparts, the sanctioned
// kernel package, and the caller side of the kernel sanction.
func TestSideChannelFixtures(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), SideChannel,
		"sidechan", "paillier", "kernelcall")
}

// TestBothPoliciesFixture runs both analyzers over one fixture: a helper
// parameter reaching a disclosure sink and a trace sink reports under both
// at the call site, whichever sink the helper meets first, and neither
// policy's directive suppresses the other's finding.
func TestBothPoliciesFixture(t *testing.T) {
	analysistest.RunTogether(t, analysistest.TestData(t),
		[]*analysis.Analyzer{Analyzer, SideChannel}, "bothpolicies")
}

// TestSharedRunMatchesSeparateRuns is the differential test of the one
// taint run per load, on every fixture of this package, the driver's e2e
// fixtures and (outside -short) the repository itself:
//
//   - one RunPackages with both analyzers reports exactly the union of
//     running each alone (directive-hygiene findings aside: which names are
//     unknown depends on the registered analyzers by design);
//   - the shared engine's leaks of each policy, in discovery order, are
//     exactly those of an engine configured with that policy alone, so a
//     sink consuming a value for one policy never hides it from the other.
func TestSharedRunMatchesSeparateRuns(t *testing.T) {
	root := repoRoot(t)
	dirs, _ := filepath.Glob(filepath.Join(analysistest.TestData(t), "src", "*"))
	e2e, _ := filepath.Glob(filepath.Join(root, "cmd", "yosolint", "testdata", "e2e", "*"))
	dirs = append(dirs, e2e...)
	if !testing.Short() {
		dirs = append(dirs, "./...")
	}
	var total [taint.MaxPolicies]int
	for _, dir := range dirs {
		pkgs, err := analysis.Load(analysis.LoadConfig{Dir: root, Tests: true, Deps: true}, dir)
		if err != nil {
			t.Fatalf("loading %s: %v", dir, err)
		}
		run := func(as ...*analysis.Analyzer) []string {
			diags, err := analysis.RunPackages(pkgs, as)
			if err != nil {
				t.Fatal(err)
			}
			var out []string
			for _, d := range diags {
				if d.Analyzer != analysis.DirectiveAnalyzerName {
					out = append(out, fmt.Sprintf("%s suppressed=%t %q", d, d.Suppressed, d.Justification))
				}
			}
			sort.Strings(out)
			return out
		}
		together := run(Analyzer, SideChannel)
		alone := append(run(Analyzer), run(SideChannel)...)
		sort.Strings(alone)
		if !reflect.DeepEqual(together, alone) {
			t.Errorf("%s: together reports\n%s\nalone reports\n%s", dir, strings.Join(together, "\n"), strings.Join(alone, "\n"))
		}

		shared := policyLeaks(newEngine(pkgs, policies...), pkgs)
		for p := range policies {
			separate := policyLeaks(newEngine(pkgs, policies[p]), pkgs)[0]
			for i := range separate {
				separate[i].Policy = p
			}
			if !reflect.DeepEqual(shared[p], separate) {
				t.Errorf("%s: policy %d leaks %v in the shared run, %v alone", dir, p, shared[p], separate)
			}
			total[p] += len(separate)
		}
	}
	if total[disclosure] == 0 || total[trace] == 0 {
		t.Errorf("leaks per policy %v: the differential compared nothing", total)
	}
}

// TestMessagesRender renders every sink kind the two policies emit, direct
// and through a helper: each kind has both formats, and neither leaves a
// fmt error verb in the text.
func TestMessagesRender(t *testing.T) {
	kinds := []string{"log", "error", "post", "branch", "index", "compare", "bigint"}
	for _, kind := range BuiltinSinkFuncs {
		kinds = append(kinds, kind)
	}
	for _, kind := range kinds {
		for _, via := range []string{"", "pkg.helper"} {
			msg := message(taint.Leak{Sink: kind, Expr: "sh.Value", Callee: "pkg.F", Via: via})
			if !strings.Contains(msg, "sh.Value") || strings.Contains(msg, "%!") {
				t.Errorf("kind %q via %q renders %q", kind, via, msg)
			}
		}
	}
}

// policyLeaks runs eng over pkgs and groups every leak by policy.
func policyLeaks(eng *taint.Engine, pkgs []*analysis.Package) [taint.MaxPolicies][]taint.Leak {
	var out [taint.MaxPolicies][]taint.Leak
	for _, pkg := range pkgs {
		for _, l := range eng.AddPackage(pkg) {
			out[l.Policy] = append(out[l.Policy], l)
		}
	}
	return out
}

// TestBuiltinSourceSetSync type-checks the real packages behind the
// builtin secret set and asserts every key still resolves: a rename of
// sharing.Share or removal of tte.PartialDec must fail this test, not
// silently hollow out the analyzer.
func TestBuiltinSourceSetSync(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks several packages")
	}
	root := repoRoot(t)

	// Group wanted names by package path. Type keys are pkgpath.TypeName,
	// field keys pkgpath.TypeName.FieldName — split at the last dots.
	type want struct {
		typeName string
		field    string // empty for whole-type keys
	}
	wants := map[string][]want{}
	for key := range builtinSecretTypes {
		path, name := splitKey(t, key)
		wants[path] = append(wants[path], want{typeName: name})
	}
	for key := range builtinSecretFields {
		typeKey, field := splitKey(t, key)
		path, name := splitKey(t, typeKey)
		wants[path] = append(wants[path], want{typeName: name, field: field})
	}

	var paths []string
	for p := range wants {
		paths = append(paths, "./"+strings.TrimPrefix(p, "yosompc/"))
	}
	sort.Strings(paths)
	pkgs, err := analysis.Load(analysis.LoadConfig{Dir: root}, paths...)
	if err != nil {
		t.Fatal(err)
	}
	byPath := map[string]*analysis.Package{}
	for _, p := range pkgs {
		byPath[p.Types.Path()] = p
	}
	for path, ws := range wants {
		pkg := byPath[path]
		if pkg == nil {
			t.Errorf("builtin source package %s did not load", path)
			continue
		}
		for _, w := range ws {
			obj := pkg.Types.Scope().Lookup(w.typeName)
			if obj == nil {
				t.Errorf("builtin source %s.%s no longer exists", path, w.typeName)
				continue
			}
			tn, ok := obj.(*types.TypeName)
			if !ok {
				t.Errorf("builtin source %s.%s is a %T, not a type", path, w.typeName, obj)
				continue
			}
			if w.field == "" {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				t.Errorf("builtin field source %s.%s.%s: type is not a struct", path, w.typeName, w.field)
				continue
			}
			found := false
			for i := 0; i < st.NumFields(); i++ {
				if st.Field(i).Name() == w.field {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("builtin field source %s.%s has no field %s", path, w.typeName, w.field)
			}
		}
	}
}

// TestBuiltinSinkFuncsSync type-checks the package behind every builtin
// sink key and asserts the method still exists with that receiver: a
// telemetry API rename must fail here, not silently stop classifying the
// emitter as a sink.
func TestBuiltinSinkFuncsSync(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks several packages")
	}
	root := repoRoot(t)

	// Sink keys are pkgpath.RecvType.Method (taint.FuncKey form).
	type want struct{ typeName, method string }
	wants := map[string][]want{}
	for key, kind := range BuiltinSinkFuncs {
		if kind != "metric" && kind != "trace" {
			t.Errorf("builtin sink %s has unknown kind %q", key, kind)
		}
		typeKey, method := splitKey(t, key)
		path, name := splitKey(t, typeKey)
		wants[path] = append(wants[path], want{typeName: name, method: method})
	}

	var paths []string
	for p := range wants {
		paths = append(paths, "./"+strings.TrimPrefix(p, "yosompc/"))
	}
	sort.Strings(paths)
	pkgs, err := analysis.Load(analysis.LoadConfig{Dir: root}, paths...)
	if err != nil {
		t.Fatal(err)
	}
	byPath := map[string]*analysis.Package{}
	for _, p := range pkgs {
		byPath[p.Types.Path()] = p
	}
	for path, ws := range wants {
		pkg := byPath[path]
		if pkg == nil {
			t.Errorf("builtin sink package %s did not load", path)
			continue
		}
		for _, w := range ws {
			obj := pkg.Types.Scope().Lookup(w.typeName)
			tn, ok := obj.(*types.TypeName)
			if !ok {
				t.Errorf("builtin sink receiver %s.%s no longer exists", path, w.typeName)
				continue
			}
			m, _, _ := types.LookupFieldOrMethod(tn.Type(), true, pkg.Types, w.method)
			if _, ok := m.(*types.Func); !ok {
				t.Errorf("builtin sink %s.%s has no method %s", path, w.typeName, w.method)
			}
		}
	}
}

// splitKey splits "pkgpath.Name" at the last dot.
func splitKey(t *testing.T, key string) (path, name string) {
	t.Helper()
	i := strings.LastIndex(key, ".")
	if i < 0 {
		t.Fatalf("malformed builtin key %q", key)
	}
	return key[:i], key[i+1:]
}

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
