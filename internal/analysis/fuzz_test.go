package analysis

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// FuzzDirectiveParse feeds arbitrary Go source through ParseDirectives and
// checks the parser's structural invariants: it never panics, every
// extracted directive carries a whitespace-trimmed name and reason, and the
// line a directive applies to is either its own line (trailing form) or the
// next one (standalone form). The directive grammar is the security
// boundary of the suppression mechanism — a parse that silently widened a
// directive's scope would let an escape hatch cover code it was never
// written for.
func FuzzDirectiveParse(f *testing.F) {
	seeds := []string{
		"package p\n",
		"package p\n\nvar x = 1 //yosolint:ignore test helper\n",
		"package p\n\n//yosolint:declassify protocol output step\nvar x = 1\n",
		"package p\n\ntype T struct {\n\tV int //yosolint:secret share payload\n}\n",
		"package p\n\n//yosolint:simulation\nvar x = 1\n",
		"package p\n\n//yosolint:unknown why not\nvar x = 1\n",
		"package p\n\n//yosolint:ignore\treason after tab\nvar x = 1\n",
		"package p\r\n\r\nvar x = 1 //yosolint:ignore crlf line endings\r\n",
		"package p\n\n/* block comment */ var x = 1 //yosolint:ignore after block\n",
		"package p\n\nvar x = 1 // yosolint:ignore space before keyword, not a directive\n",
		"package p\n\n//yosolint:ignore first\n//yosolint:declassify second\nvar x = 1\n",
		"package p\n\nvar x = 1 //yosolint:ignore trailing at EOF",
		"package p\n\n//yosolint:owner the session wipes the buffer it was handed\nvar x = 1\n",
		"package p\n\nvar x = 1 //yosolint:daemon debug endpoint lives for the process lifetime\n",
		"package p\n\ntype T struct{} //yosolint:owner the caller wipes the returned buffer\n",
		"package p\n\nvar x = 1 //yosolint:vartime reconstruction-side: the decoder learns the secrets anyway\n",
		"package p\n\n//yosolint:vartime dealer-side one-time keygen\nvar x = 1\n",
		"package p\n\nvar x = 1 //yosolint:owner caller wipes the sampled vector after use\n",
		"package p\n\n//yosolint:owner constructor hands the buffer to the session, wiped in Close\nvar x = 1\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "fuzz.go", src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil || file == nil {
			return
		}
		for _, d := range ParseDirectives(fset, file, src) {
			if d.Name != strings.TrimSpace(d.Name) {
				t.Fatalf("directive name %q not trimmed", d.Name)
			}
			if strings.ContainsAny(d.Name, " \t") {
				t.Fatalf("directive name %q contains whitespace", d.Name)
			}
			if d.Reason != strings.TrimSpace(d.Reason) {
				t.Fatalf("directive reason %q not trimmed", d.Reason)
			}
			if !d.Pos.IsValid() {
				t.Fatalf("directive %q has invalid position", d.Name)
			}
			commentLine := fset.Position(d.Pos).Line
			if d.Line != commentLine && d.Line != commentLine+1 {
				t.Fatalf("directive %q on line %d applies to line %d; must be the same or next line",
					d.Name, commentLine, d.Line)
			}
		}
	})
}
