package analysis

import (
	"go/ast"
	"go/token"
	"strings"
	"unicode"
)

// Directive is one //yosolint: comment directive.
//
// Syntax: `//yosolint:NAME justification...` — no space before NAME, and a
// non-empty justification is mandatory (the runner reports reason-less and
// unknown directives as findings of their own, so an escape hatch can never
// be used silently).
//
// Placement: a directive written as a trailing comment suppresses matching
// diagnostics on its own line; a directive on a line of its own suppresses
// them on the next line.
type Directive struct {
	// Name is the directive keyword, e.g. "simulation" or "ignore".
	Name string
	// Reason is the justification text following the keyword.
	Reason string
	// Pos is the position of the directive comment.
	Pos token.Pos
	// Line is the source line the directive applies to.
	Line int
}

// DirectiveAnalyzerName is the pseudo-analyzer under which the runner
// reports directive-hygiene findings (unknown names, missing reasons).
const DirectiveAnalyzerName = "yosolint"

const directivePrefix = "//yosolint:"

// ParseDirectives extracts the //yosolint: directives of one parsed file.
// src must be the file's source bytes (used to decide whether a directive
// is trailing code on its line or stands alone).
func ParseDirectives(fset *token.FileSet, file *ast.File, src []byte) []Directive {
	var out []Directive
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := c.Text
			if !strings.HasPrefix(text, directivePrefix) {
				continue
			}
			rest := strings.TrimPrefix(text, directivePrefix)
			name, reason := cutSpace(rest)
			pos := fset.Position(c.Pos())
			line := pos.Line
			if standsAlone(fset, c.Pos(), src) {
				line++
			}
			out = append(out, Directive{
				Name:   strings.TrimSpace(name),
				Reason: strings.TrimSpace(reason),
				Pos:    c.Pos(),
				Line:   line,
			})
		}
	}
	return out
}

// cutSpace splits s at its first whitespace rune, so a tab-separated
// justification parses the same as a space-separated one instead of
// leaking the separator into the directive name.
func cutSpace(s string) (name, reason string) {
	if i := strings.IndexFunc(s, unicode.IsSpace); i >= 0 {
		return s[:i], strings.TrimSpace(s[i:])
	}
	return s, ""
}

// standsAlone reports whether only whitespace precedes pos on its line.
func standsAlone(fset *token.FileSet, pos token.Pos, src []byte) bool {
	tf := fset.File(pos)
	if tf == nil {
		return false
	}
	off := tf.Offset(pos)
	start := tf.Offset(tf.LineStart(tf.Line(pos)))
	if start < 0 || off > len(src) {
		return false
	}
	return len(strings.TrimSpace(string(src[start:off]))) == 0
}

// directiveIndex maps filename → line → directives applying to that line.
type directiveIndex map[string]map[int][]Directive

func indexDirectives(pkg *Package, honored map[string]bool) (directiveIndex, []Diagnostic) {
	idx := directiveIndex{}
	var diags []Diagnostic
	for _, f := range pkg.Files {
		pos := pkg.Fset.Position(f.Pos())
		src := pkg.Sources[pos.Filename]
		for _, d := range ParseDirectives(pkg.Fset, f, src) {
			dpos := pkg.Fset.Position(d.Pos)
			if !honored[d.Name] {
				diags = append(diags, Diagnostic{
					Analyzer: DirectiveAnalyzerName,
					Pos:      dpos,
					Message:  "unknown //yosolint: directive " + strconvQuote(d.Name) + " (no registered analyzer honors it)",
				})
				continue
			}
			if d.Reason == "" {
				diags = append(diags, Diagnostic{
					Analyzer: DirectiveAnalyzerName,
					Pos:      dpos,
					Message:  "//yosolint:" + d.Name + " directive requires a justifying comment",
				})
				continue
			}
			byLine := idx[dpos.Filename]
			if byLine == nil {
				byLine = map[int][]Directive{}
				idx[dpos.Filename] = byLine
			}
			byLine[d.Line] = append(byLine[d.Line], d)
		}
	}
	return idx, diags
}

// suppressing returns the directive at the diagnostic's line that covers
// the given analyzer, or nil when none does.
func (idx directiveIndex) suppressing(a *Analyzer, d Diagnostic) *Directive {
	byLine := idx[d.Pos.Filename]
	if byLine == nil {
		return nil
	}
	for _, dir := range byLine[d.Pos.Line] {
		for _, name := range a.Directives {
			if dir.Name == name {
				return &dir
			}
		}
	}
	return nil
}

func strconvQuote(s string) string { return `"` + s + `"` }
