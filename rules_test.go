package yosompc

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
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
	// wire randomness and the Beaver a's together, the baseline's bOff1 the
	// a's alone. committee.Runner.Beaver is the b/c step over those a's: it
	// forms one committee and returns one Triple per multiplication gate;
	// Runner.Masked is the one ε = x + a, δ = y + b and Triple.Product the
	// one Beaver identity. Result.Rounds counts the committees a run formed
	// plus the client round, so a constant plus Depth() is a second copy of
	// the schedule that drifts when the schedule does.
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
