package field

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// exportData opens the compiler's export data for an import path, building
// the package if needed — the same `go list -export` the yosolint loader
// uses, so the snippets below are checked against the package as built.
func exportData(path string) (io.ReadCloser, error) {
	out, err := exec.Command("go", "list", "-export", "-f", "{{.Export}}", "--", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export %s: %w", path, err)
	}
	return os.Open(strings.TrimSpace(string(out)))
}

// TestElementIsOpaque is the compiler enforcing what a lint pass once
// did: outside this package, raw arithmetic, ordering, conversions and
// literals on an Element are type errors, while comparison for equality,
// map keys, the zero value and the method API are not.
func TestElementIsOpaque(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not on PATH")
	}
	rejected := []string{
		"_ = a + b",
		"_ = a - b",
		"_ = a * b",
		"_ = a / b",
		"_ = a % b",
		"a++",
		"a += b",
		"_ = -a",
		"_ = a < b",
		"_ = field.Element(3)",
		"_ = uint64(a)",
		"var x field.Element = 7; _ = x",
		"_ = field.Element{3}",
	}
	accepted := []string{
		"_ = a == b",
		"_ = a != b",
		"_ = map[field.Element]int{}",
		"_ = a.Add(b)",
		"var z field.Element; _ = z.IsZero()",
		"_ = []field.Element{field.Zero, field.One, field.New(3)}",
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", exportData)
	check := func(stmt string) error {
		src := "package p\nimport \"yosompc/internal/field\"\nfunc _(a, b field.Element) { " + stmt + " }\n"
		f, err := parser.ParseFile(fset, "snippet.go", src, 0)
		if err != nil {
			t.Fatalf("%q does not parse: %v", stmt, err)
		}
		_, err = (&types.Config{Importer: imp}).Check("p", fset, []*ast.File{f}, nil)
		return err
	}
	for _, stmt := range accepted {
		if err := check(stmt); err != nil {
			t.Errorf("%q should compile outside the package: %v", stmt, err)
		}
	}
	for _, stmt := range rejected {
		if err := check(stmt); err == nil {
			t.Errorf("%q compiles outside the package; Element is not opaque", stmt)
		}
	}
}

// TestElementFormatsAsDecimal pins the Stringer: an opaque struct printed
// with %d would read "{5}", so every caller formats through %v, %s or
// Uint64().
func TestElementFormatsAsDecimal(t *testing.T) {
	e := New(Modulus + 5)
	for _, got := range []string{fmt.Sprint(e), fmt.Sprintf("%v", e), fmt.Sprintf("%s", e), e.String()} {
		if got != "5" {
			t.Errorf("formatted %q, want \"5\"", got)
		}
	}
	if got := fmt.Sprint([]Element{One, New(42)}); got != "[1 42]" {
		t.Errorf("slice formatted %q, want \"[1 42]\"", got)
	}
}
