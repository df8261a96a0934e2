package yosompc

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"testing/fstest"
)

// A structural rule is a regexp over the module's Go source, one line at a
// time, as `grep -rnE pattern --include=*.go roots` reads it. Each hit is
// the line "path:line:text"; a hit matching any skip regexp is dropped, as
// `grep -v skip` drops it, and more than most hits fail the rule. Paths are
// relative to the module root without a "./" prefix, and a root holding a
// '*' is a glob of files in the module root.
//
// Patterns and skips are grep's, with three rewrites where RE2 reads them
// otherwise: a literal '(' in a basic-regexp skip is escaped; grep's word
// start \< is \b; and the locale-dependent classes [[:alnum:]] and
// [[:space:]] are written [\pL\pN] and [[:space:]\pZ], so a rule matches at
// least what grep matched under any locale.
type structuralRule struct {
	name    string
	roots   []string
	pattern string
	skip    []string
	most    int
	hint    string
}

// Skips shared by most rules: test files and the analyzers' fixtures.
const (
	skipTests    = `_test.go:`
	skipTestdata = `/testdata/`
)

var structuralRules = []structuralRule{
	// The reference implementations the differential tests and fuzzers
	// compare against live in _test.go files; shipped code has one path per
	// operation.
	{
		name:    "engines are single-path",
		roots:   []string{"internal", "cmd"},
		pattern: `func .*Naive|engine bool`,
		skip:    []string{`_test.go`},
		hint:    "reference implementations belong in _test.go files",
	},
	// internal/analysis/astutil.go holds the one copy of each helper.
	{
		name:    "analyzers share one toolkit",
		roots:   []string{"internal/analysis"},
		pattern: `func (callee|calleeFunc|resolveCallee|exprKey|boardPkg|baseObject)\(`,
		skip:    []string{`_test.go`, `testdata`},
		hint:    "use the shared helpers in package analysis (astutil.go)",
	},
	// secretflow builds the load's one taint engine, both policies
	// included, and sidechannel and zeroize read it through the pass memo;
	// a second engine is a second fixpoint over the same load.
	{
		name:    "one secret model",
		roots:   []string{"internal/analysis"},
		pattern: `taint\.NewEngine\(`,
		skip:    []string{`_test.go`, `testdata`},
		most:    1,
		hint:    "share the engine through secretflow's memo instead of building another",
	},
	// wire.ReadFrame is the one stream reader: every boardd message is one
	// frame, and each is decoded from the frame's body, so a ReadFrom
	// method or a second stream reader in wire would be a second parser of
	// a layout. Entry's WriteTo is the one stream writer; a stream half on
	// a type no stream carries has no caller.
	{
		name:    "stream halves: no ReadFrom under internal",
		roots:   []string{"internal"},
		pattern: `func \([^)]*\) ReadFrom\(`,
		skip:    []string{`_test.go`, skipTestdata},
		hint:    "decode from a frame's body (wire.ReadFrame), not from a stream",
	},
	{
		name:    "stream halves: no wire.Read* but ReadFrame",
		roots:   []string{"internal/wire"},
		pattern: `^func (\([^)]*\) )?Read[A-Za-z0-9_]*\(`,
		skip:    []string{`_test.go`, `func ReadFrame\(`},
		hint:    "decode from a frame's body (wire.ReadFrame), not from a stream",
	},
	{
		name:    "stream halves: no WriteTo under field, sharing, nizk or yoso",
		roots:   []string{"internal/field", "internal/sharing", "internal/nizk", "internal/yoso"},
		pattern: `func \([^)]*\) WriteTo\(`,
		skip:    []string{`_test.go`},
		hint:    "use the MarshalBinary/UnmarshalBinary pair",
	},
	{
		name:    "stream halves: no WriteTo on Manifest",
		roots:   []string{"internal"},
		pattern: `func \([^)]*Manifest\) WriteTo\(`,
		skip:    []string{`_test.go`, skipTestdata},
		hint:    "use the MarshalBinary/UnmarshalBinary pair",
	},
	// A tail reads the board's log directly and observers run in Seq order
	// under the append lock, so a subscription channel with gap re-syncs
	// has nothing left to repair; growing one back would make the views of
	// the board disagree again. Tests and fixtures are scanned too.
	{
		name:    "one ordered board log",
		roots:   []string{"internal"},
		pattern: `fanOut|gapped|tailBuffer|tail_resyncs`,
		hint:    "a tail reads the board's log; there is no second delivery path",
	},
	// internal/circuit says once what a linear gate computes (Gate.Terms,
	// Gate.EvalLinear) and after which layer (LinearAt, MulGates,
	// MulBatches); the evaluator, slotpack, core and the baseline loop over
	// that schedule. A switch on Add, Sub or ConstMul anywhere else is a
	// second copy of the rule.
	{
		name:    "one gate semantics",
		roots:   []string{"."},
		pattern: `circuit\.Kind(Add|Sub|ConstMul)\b`,
		skip:    []string{skipTests, skipTestdata},
		hint:    "read a linear gate through circuit.Gate.Terms and the circuit's schedule, not its kind",
	},
	// committee.Runner.RandomStep is the one step that posts fresh random
	// contributions, and each driver runs it once: core's OffR extracts the
	// wire randomness, the baseline's bOff1 the Beaver a's.
	// committee.Runner.Beaver is the product step over given operands (core's
	// right-input λ's, the baseline's a's): it forms one committee and
	// returns one Triple per multiplication gate; Runner.Masked forms every
	// mask a driver opens and Triple.Product is the one Beaver identity.
	// Result.Rounds counts the committees a run formed plus the client round,
	// so a constant plus Depth() is a second copy of the schedule that drifts
	// when the schedule does.
	{
		name:    "one Beaver step: masks, product and rounds only in package committee",
		roots:   []string{"internal", "cmd", "examples", "*.go"},
		pattern: `FieldCoeff\([^)]*\.Neg\(\)\)|Ones\(2\)|Rounds:.*Depth\(\)|[0-9] *\+ *[\pL\pN_.]*Depth\(\)`,
		skip:    []string{skipTests, skipTestdata, `^internal/committee/`},
		hint:    "use committee.Runner.Beaver, Runner.Masked and Triple.Product, and count rounds from the committees a run formed",
	},
	{
		name:    "one Beaver step: one RandomStep in package core",
		roots:   []string{"internal/core"},
		pattern: `RandomStep\(`,
		skip:    []string{skipTests},
		most:    1,
		hint:    "draw every random value of a committee in its one step",
	},
	{
		name:    "one Beaver step: one RandomStep in package baseline",
		roots:   []string{"internal/baseline"},
		pattern: `RandomStep\(`,
		skip:    []string{skipTests},
		most:    1,
		hint:    "draw every random value of a committee in its one step",
	},
	// Spans are the protocol's one record of progress (phase and
	// committee-step spans, the step's verified count, Result.Excluded;
	// docs/OBSERVABILITY.md). A structured logger beside them repeated what
	// they record, and no binary set it.
	{
		name:    "one progress channel",
		roots:   []string{"internal"},
		pattern: `^[[:space:]\pZ]*(import[[:space:]\pZ]+)?([\pL\pN_.]+[[:space:]\pZ]+)?"log/slog"[[:space:]\pZ]*(//.*)?$`,
		skip:    []string{skipTests, skipTestdata},
		hint:    "record progress in a span, not through log/slog",
	},
	// Every goroutine the module starts must end before its tests do:
	// fan-out goes through internal/parallel, whose pool joins its workers
	// before For returns, and the board service (its tail readers
	// included, which the monitor's RunTail uses) and the telemetry server
	// start the rest. Those packages' TestMain (and internal/monitor's and
	// internal/integration's) end with the run-time leak check in
	// internal/leakcheck; a go statement anywhere else would start
	// goroutines no such check watches. The check itself is test-only code.
	{
		name:    "goroutines start in three packages",
		roots:   []string{"internal"},
		pattern: `(^|[{;])[[:space:]\pZ]*go[[:space:]\pZ]+[\pL\pN_(]`,
		skip:    []string{skipTests, skipTestdata, `^internal/(transport|telemetry|parallel)/`},
		hint:    "fan out through internal/parallel instead of a raw go statement",
	},
	{
		name:    "goroutines start in three packages: leakcheck only in tests",
		roots:   []string{"."},
		pattern: `"yosompc/internal/leakcheck"`,
		skip:    []string{`^[^:]*_test.go:`},
		hint:    "internal/leakcheck is imported only from _test.go files",
	},
	// A pke.Sealer seals all of one posting's envelopes under one posting
	// key, written once at the head of the posting (on ECIES one ephemeral
	// X25519 key), so each envelope costs one key agreement and 16 bytes;
	// sealing on the public key (Encrypt) writes a whole one-envelope
	// posting, key included, per envelope. Only internal/pke (where Encrypt
	// is a one-envelope Sealer), tests and the benchmark's one-envelope
	// probe call Encrypt on a key.
	{
		name:    "one sealing path",
		roots:   []string{"internal", "cmd", "examples", "*.go"},
		pattern: `(\.Key|\.PublicKey\(\)|\.Public\(\)|\bpub[\pL\pN]*)\.(Append)?Encrypt\(`,
		skip:    []string{skipTests, skipTestdata, `^internal/pke/`},
		hint:    "seal through a pke.Sealer, one per posting, not on the public key",
	},
	// A quorum walk opens every envelope with SecretKey.AppendOpen — under
	// its poster's posting key, at the part index the step's layout gives —
	// into one plaintext scratch, wiped after each decode and over its
	// capacity when the walk ends. Decrypt, and AppendOpen into nil,
	// allocate a plaintext per envelope. Only internal/pke (where Decrypt
	// opens a one-envelope posting), tests and the benchmark's one-envelope
	// probe do either; benchmark/ is not scanned. The Paillier layer's own
	// Decrypt (internal/paillier, and the dealer key tte's simulator holds
	// as .dealer) opens a ciphertext, not an envelope.
	{
		name:    "one opening path",
		roots:   []string{"internal", "cmd", "examples", "*.go"},
		pattern: `\.Decrypt\(|\.AppendOpen\(nil,`,
		skip:    []string{skipTests, skipTestdata, `^internal/(pke|paillier)/`, `\.dealer\.Decrypt\(`},
		hint:    "open envelopes with SecretKey.AppendOpen into one wiped scratch, not with Decrypt or into nil",
	},
	// committee.Speak is where a member posts: it runs the honest payload
	// or the behavior's deviation, attests unless the step is unattested,
	// and hands the reader the posted bytes. A driver's own post loop is a
	// second step runtime beside committee.Step.
	{
		name:    "members post only through committee.Speak",
		roots:   []string{"internal", "cmd", "examples", "*.go"},
		pattern: `\brole\.Post\(`,
		skip:    []string{skipTests, skipTestdata, `^internal/committee/`},
		hint:    "post a member's payload through committee.Speak or committee.Step",
	},
	// A posting's length is a function of public counts and the backend's
	// widths (internal/postlen): the writers, the μ reader, a malicious
	// member's garbage and internal/costmodel all take it from there. A
	// width constant read anywhere else is a second length model.
	{
		name:    "one length model",
		roots:   []string{"internal", "cmd", "examples", "*.go"},
		pattern: `pke\.(PostingKeySize|EnvelopeOverhead)|field\.ElementSize`,
		skip:    []string{skipTests, skipTestdata, `^internal/(postlen|pke|field)/`},
		hint:    "take a posting's length from postlen.Posting.Len and a width from postlen.Sizes",
	},
	// Every byte on the board comes from a codec: a step's writer, whose
	// reader decodes it with the step's public layout, or a type's
	// MarshalBinary (codecGaps below). Text converted or formatted into a
	// payload has no decoder.
	{
		name:    "board payloads come from codecs",
		roots:   []string{"internal", "cmd", "examples", "*.go"},
		pattern: `\.(Post|PostCtx|Publish|Broadcast)\(.*(\[\]byte\(|fmt\.Append)`,
		skip:    []string{skipTests, skipTestdata},
		hint:    "encode a posting with its codec, not from text",
	},
}

// TestStructuralRules holds the module to its one-mechanism-per-job rules.
// Each row fails with the hits it found and the way out.
func TestStructuralRules(t *testing.T) {
	for _, rule := range structuralRules {
		t.Run(rule.name, func(t *testing.T) {
			hits, err := rule.hits()
			if err != nil {
				t.Fatal(err)
			}
			if len(hits) > rule.most {
				t.Errorf("%d hits, at most %d allowed: %s\n%s", len(hits), rule.most, rule.hint, strings.Join(hits, "\n"))
			}
		})
	}
	t.Run("docs cite tests that exist", func(t *testing.T) {
		hits, err := deadTestCitations()
		if err != nil {
			t.Fatal(err)
		}
		if len(hits) > 0 {
			t.Errorf("%d citations name no test function: cite the test that does the work, or drop the citation\n%s",
				len(hits), strings.Join(hits, "\n"))
		}
	})
	t.Run("codec types: the pair, a size model and a size-checking fuzz target", func(t *testing.T) {
		gaps, err := codecGaps(os.DirFS("."))
		if err != nil {
			t.Fatal(err)
		}
		if len(gaps) > 0 {
			t.Errorf("%d codec types break the rule: declare MarshalBinary, UnmarshalBinary and EncodedSize, and check len(MarshalBinary()) == EncodedSize() in a Fuzz* target that names the type\n%s",
				len(gaps), strings.Join(gaps, "\n"))
		}
	})
	t.Run("every fuzz target runs in fuzz-smoke", func(t *testing.T) {
		missing, err := unsmokedFuzzTargets(".github/workflows/ci.yml")
		if err != nil {
			t.Fatal(err)
		}
		if len(missing) > 0 {
			t.Errorf("%d fuzz targets have no fuzz-smoke step: add `go test -run=^$ -fuzz=<Name> -fuzztime=20s ./<dir>` to ci.yml\n%s",
				len(missing), strings.Join(missing, "\n"))
		}
	})
	t.Run("PROTOCOL.md names identifiers that exist", func(t *testing.T) {
		hits, err := deadIdentifiers("docs/PROTOCOL.md")
		if err != nil {
			t.Fatal(err)
		}
		if len(hits) > 0 {
			t.Errorf("%d code spans name a word no Go file holds: name the code as it is, or drop the span\n%s",
				len(hits), strings.Join(hits, "\n"))
		}
	})
}

// TestCodecGaps holds codecGaps to the codec rule on in-memory packages:
// each half of the pair alone, a missing size model, a type no fuzz target
// names, a fuzz target that never checks the size, and a clean type fuzzed
// in-package or from the external test package.
func TestCodecGaps(t *testing.T) {
	const (
		pair   = "package w\ntype T struct{}\nfunc (T) MarshalBinary() ([]byte, error) { return nil, nil }\nfunc (*T) UnmarshalBinary([]byte) error { return nil }\n"
		sized  = pair + "func (T) EncodedSize() int { return 0 }\n"
		fuzzIn = "package w\nimport \"testing\"\nfunc FuzzT(f *testing.F) {\n\tf.Fuzz(func(t *testing.T, b []byte) {\n\t\tvar v T\n\t\t_ = v.UnmarshalBinary(b)\n\t\t_ = v.EncodedSize()\n\t})\n}\n"
	)
	for _, c := range []struct {
		name  string
		files map[string]string
		want  []string
	}{
		{"clean", map[string]string{"w/w.go": sized, "w/w_test.go": fuzzIn}, nil},
		{"external test package", map[string]string{
			"w/w.go":          sized,
			"w/w_ext_test.go": "package w_test\nimport (\n\t\"testing\"\n\t\"m/w\"\n)\nfunc FuzzT(f *testing.F) {\n\tf.Fuzz(func(t *testing.T, b []byte) {\n\t\tvar v w.T\n\t\tif v.UnmarshalBinary(b) == nil && len(b) != v.EncodedSize() {\n\t\t\tt.Fatal(b)\n\t\t}\n\t})\n}\n",
		}, nil},
		{"marshal only", map[string]string{
			"w/w.go":      "package w\ntype T struct{}\nfunc (T) MarshalBinary() ([]byte, error) { return nil, nil }\nfunc (T) EncodedSize() int { return 0 }\n",
			"w/w_test.go": fuzzIn,
		}, []string{"w: T has no UnmarshalBinary"}},
		{"unmarshal only", map[string]string{
			"w/w.go":      "package w\ntype T struct{}\nfunc (*T) UnmarshalBinary([]byte) error { return nil }\nfunc (T) EncodedSize() int { return 0 }\n",
			"w/w_test.go": fuzzIn,
		}, []string{"w: T has no MarshalBinary"}},
		{"no size model", map[string]string{"w/w.go": pair, "w/w_test.go": fuzzIn}, []string{"w: T has no EncodedSize"}},
		{"no fuzz target", map[string]string{
			"w/w.go":      sized,
			"w/w_test.go": "package w\nimport \"testing\"\nfunc TestT(t *testing.T) {\n\tvar v T\n\t_ = v.EncodedSize()\n}\n",
		}, []string{"w: T has no Fuzz* target that names it and calls EncodedSize"}},
		{"fuzz target never sizes", map[string]string{
			"w/w.go":      sized,
			"w/w_test.go": "package w\nimport \"testing\"\nfunc FuzzT(f *testing.F) {\n\tf.Fuzz(func(t *testing.T, b []byte) {\n\t\tvar v T\n\t\t_ = v.UnmarshalBinary(b)\n\t})\n}\n",
		}, []string{"w: T has no Fuzz* target that names it and calls EncodedSize"}},
		{"another package's fuzz target", map[string]string{"w/w.go": sized, "v/v_test.go": fuzzIn}, []string{"w: T has no Fuzz* target that names it and calls EncodedSize"}},
		{"fixtures are not scanned", map[string]string{"w/testdata/w.go": pair}, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			fsys := fstest.MapFS{}
			for name, src := range c.files {
				fsys[name] = &fstest.MapFile{Data: []byte(src)}
			}
			got, err := codecGaps(fsys)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, c.want) {
				t.Errorf("codecGaps = %q, want %q", got, c.want)
			}
		})
	}
}

// citedDocs are the documents whose test citations must resolve.
var citedDocs = []string{"DESIGN.md", "EXPERIMENTS.md", "README.md", "docs/*.md"}

var (
	// testFunc is a test or fuzz function's declaration in a _test.go file.
	testFunc = regexp.MustCompile(`^func ((Test|Fuzz)[\pL\pN_]*)\(`)
	// codeSpan is a Markdown code span on one line, and citation a test or
	// fuzz name inside one. A trailing '*' cites every name with that
	// prefix, and so does a name in a span that passes `go test -run` a
	// pattern.
	codeSpan = regexp.MustCompile("`[^`]+`")
	citation = regexp.MustCompile(`\b(Test|Fuzz)[\p{Lu}\pN_][\pL\pN_]*\*?`)
)

// deadTestCitations returns, as "path:line:name", every Test… or Fuzz… name
// that a code span of the cited documents holds and no test or fuzz function
// in the tree (the benchmark module included) is called or, cited as a
// prefix, starts with.
func deadTestCitations() ([]string, error) {
	tests := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return filepath.SkipDir // .git, build caches and the analyzers' fixtures
		case d.IsDir() || !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		return scanLines(path, func(_ int, line string) {
			if m := testFunc.FindStringSubmatch(line); m != nil {
				tests[m[1]] = true
			}
		})
	})
	if err != nil {
		return nil, err
	}
	exists := func(name string, run bool) bool {
		prefix, star := strings.CutSuffix(name, "*")
		if !star && !run {
			return tests[name]
		}
		for test := range tests {
			if strings.HasPrefix(test, prefix) {
				return true
			}
		}
		return false
	}
	var dead []string
	for _, pattern := range citedDocs {
		docs, err := filepath.Glob(pattern)
		if err != nil {
			return nil, err
		}
		for _, doc := range docs {
			err := scanLines(doc, func(n int, line string) {
				for _, span := range codeSpan.FindAllString(line, -1) {
					run := strings.Contains(span, "-run")
					for _, name := range citation.FindAllString(span, -1) {
						if !exists(name, run) {
							dead = append(dead, fmt.Sprintf("%s:%d:%s", doc, n, name))
						}
					}
				}
			})
			if err != nil {
				return nil, err
			}
		}
	}
	return dead, nil
}

var (
	// goWord is a Go identifier, and identSpan a code span holding nothing
	// but one, optionally dotted, optionally followed by "()".
	goWord    = regexp.MustCompile(`[\pL_][\pL\pN_]*`)
	identSpan = regexp.MustCompile("^`([\\pL_][\\pL\\pN_]*(?:\\.[\\pL_][\\pL\\pN_]*)*)(?:\\(\\))?`$")
)

// deadIdentifiers returns, as "path:line:name", every code span of doc
// shaped like a Go identifier that has a dotted part occurring as a word in
// no Go file of the tree (the benchmark module included).
func deadIdentifiers(doc string) ([]string, error) {
	words := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir // .git and build caches
		case d.IsDir() || !strings.HasSuffix(path, ".go"):
			return nil
		}
		return scanLines(path, func(_ int, line string) {
			for _, w := range goWord.FindAllString(line, -1) {
				words[w] = true
			}
		})
	})
	if err != nil {
		return nil, err
	}
	var dead []string
	err = scanLines(doc, func(n int, line string) {
		for _, span := range codeSpan.FindAllString(line, -1) {
			m := identSpan.FindStringSubmatch(span)
			if m == nil {
				continue
			}
			for _, part := range strings.Split(m[1], ".") {
				if !words[part] {
					dead = append(dead, fmt.Sprintf("%s:%d:%s", doc, n, m[1]))
					break
				}
			}
		}
	})
	return dead, err
}

// codecGaps returns, as "dir: message", every type declared in the non-test
// Go files of fsys (testdata/ and dot-directories skipped) that has a
// MarshalBinary or UnmarshalBinary method but not both, no EncodedSize
// method, or no Fuzz* function in its directory's tests (in-package or
// external) whose body names the type and calls EncodedSize. Bytes nothing
// decodes are write-only, the size model is the board's byte accounting,
// and a fuzz target that checks the size holds the model to every value
// hostile bytes decode to. Files are parsed, not type-checked, so a name
// is matched by spelling.
func codecGaps(fsys fs.FS) ([]string, error) {
	type ident struct{ dir, name string }
	methods := map[ident]map[string]bool{} // a type's method names
	fuzzed := map[ident]bool{}             // names in a size-checking Fuzz* body
	fset := token.NewFileSet()
	err := fs.WalkDir(fsys, ".", func(name string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && name != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return fs.SkipDir
		case d.IsDir() || !strings.HasSuffix(name, ".go"):
			return nil
		}
		src, err := fs.ReadFile(fsys, name)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir, test := path.Dir(name), strings.HasSuffix(name, "_test.go")
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			switch {
			case !ok:
			case !test && fn.Recv != nil:
				typ := ident{dir, receiverType(fn.Recv.List[0].Type)}
				if methods[typ] == nil {
					methods[typ] = map[string]bool{}
				}
				methods[typ][fn.Name.Name] = true
			case test && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Fuzz") && fn.Body != nil:
				names, sized := map[string]bool{}, false
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					switch x := n.(type) {
					case *ast.Ident:
						names[x.Name] = true
					case *ast.CallExpr:
						if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "EncodedSize" {
							sized = true
						}
					}
					return true
				})
				for n := range names {
					if sized {
						fuzzed[ident{dir, n}] = true
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var gaps []string
	for typ, has := range methods {
		if !has["MarshalBinary"] && !has["UnmarshalBinary"] {
			continue
		}
		var missing []string
		for _, m := range []string{"MarshalBinary", "UnmarshalBinary", "EncodedSize"} {
			if !has[m] {
				missing = append(missing, m)
			}
		}
		if !fuzzed[typ] {
			missing = append(missing, "Fuzz* target that names it and calls EncodedSize")
		}
		if len(missing) > 0 {
			gaps = append(gaps, fmt.Sprintf("%s: %s has no %s", typ.dir, typ.name, strings.Join(missing, ", no ")))
		}
	}
	slices.Sort(gaps)
	return gaps, nil
}

// receiverType is the name of the type a method's receiver expression
// declares it on, through a pointer and type parameters.
func receiverType(x ast.Expr) string {
	for {
		switch t := x.(type) {
		case *ast.StarExpr:
			x = t.X
		case *ast.IndexExpr:
			x = t.X
		case *ast.IndexListExpr:
			x = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// fuzzStep is a workflow line that runs one fuzz target in one package:
// `go test … -fuzz=Name … ./dir`.
var fuzzStep = regexp.MustCompile(`-fuzz=([\pL\pN_]+)[[:space:]].*[[:space:]](\.[^[:space:]]*)[[:space:]]*$`)

// unsmokedFuzzTargets returns, as "dir:Name", every Fuzz* function in a
// _test.go file of the tree, outside testdata/ and the benchmark module,
// that no line of the workflow at ci runs with -fuzz=Name in its package.
// A fuzz target no CI step runs is one more seed-corpus unit test.
func unsmokedFuzzTargets(ci string) ([]string, error) {
	steps := map[string]bool{}
	if err := scanLines(ci, func(_ int, line string) {
		if m := fuzzStep.FindStringSubmatch(line); m != nil {
			steps[path.Clean(m[2])+":"+m[1]] = true
		}
	}); err != nil {
		return nil, err
	}
	var missing []string
	err := filepath.WalkDir(".", func(name string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && name != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || name == "benchmark"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(name, "_test.go"):
			return nil
		}
		return scanLines(name, func(_ int, line string) {
			m := testFunc.FindStringSubmatch(line)
			if m == nil || m[2] != "Fuzz" {
				return
			}
			if target := filepath.ToSlash(filepath.Dir(name)) + ":" + m[1]; !steps[target] {
				missing = append(missing, target)
			}
		})
	})
	return missing, err
}

// scanLines calls line for every line of the file at path, numbered from 1.
func scanLines(path string, line func(n int, text string)) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		line(n, sc.Text())
	}
	return sc.Err()
}

// hits walks the rule's roots and returns its hits in walk order.
func (r structuralRule) hits() ([]string, error) {
	match := regexp.MustCompile(r.pattern)
	skips := make([]*regexp.Regexp, len(r.skip))
	for i, s := range r.skip {
		skips[i] = regexp.MustCompile(s)
	}
	var hits []string
	scan := func(path string) error {
		return scanLines(path, func(n int, line string) {
			if !match.MatchString(line) {
				return
			}
			hit := fmt.Sprintf("%s:%d:%s", filepath.ToSlash(path), n, line)
			for _, s := range skips {
				if s.MatchString(hit) {
					return
				}
			}
			hits = append(hits, hit)
		})
	}
	for _, root := range r.roots {
		if strings.Contains(root, "*") {
			files, err := filepath.Glob(root)
			if err != nil {
				return nil, err
			}
			for _, file := range files {
				if err := scan(file); err != nil {
					return nil, err
				}
			}
			continue
		}
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(d.Name(), ".go") {
				return err
			}
			return scan(path)
		})
		if err != nil {
			return nil, err
		}
	}
	return hits, nil
}
