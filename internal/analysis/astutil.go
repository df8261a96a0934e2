package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The helpers every analyzer shares. Each exists exactly once, here: CI
// greps the analyzer packages for private copies.

// Callee resolves the static callee of a call — a package-level function,
// a qualified pkg.F, or a method through its selection — or nil for
// builtins, conversions, function values and other dynamic calls.
func (p *Package) Callee(call *ast.CallExpr) *types.Func {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := p.Info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[f]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := p.Info.Uses[f.Sel].(*types.Func) // qualified package function
		return fn
	}
	return nil
}

// BaseObject finds the root identifier's object behind a chain of
// selectors, indexes, slices, derefs and parens; nil when the chain roots
// in anything else (a call result, a literal).
func (p *Package) BaseObject(e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return p.Info.ObjectOf(x)
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := p.Info.Uses[id].(*types.PkgName); isPkg {
					return p.Info.Uses[x.Sel]
				}
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// ExprKey names a lock, channel or WaitGroup expression so the same
// logical object matches across functions: the owner's named type plus the
// selector path ("transport.Server.mu"), a package-level variable
// ("sharing.domainMu"), or a function-local fallback ("local mu",
// anonymous across functions). "" when the expression has no stable name.
func (p *Package) ExprKey(e ast.Expr) string {
	var fields []string
	join := func(root string) string {
		return strings.Join(append([]string{root}, fields...), ".")
	}
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if pn, ok := p.Info.Uses[id].(*types.PkgName); ok {
					return join(pn.Imported().Name() + "." + x.Sel.Name)
				}
			}
			fields = append([]string{x.Sel.Name}, fields...)
			e = x.X
		case *ast.Ident:
			obj := p.Info.ObjectOf(x)
			if obj == nil {
				return ""
			}
			if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
				return join(obj.Pkg().Name() + "." + obj.Name())
			}
			t := obj.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != nil {
				return join(n.Obj().Pkg().Name() + "." + n.Obj().Name())
			}
			return join("local " + obj.Name())
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return ""
			}
			e = x.X
		default:
			return ""
		}
	}
}

// IsTestFile reports whether pos lies in a _test.go file. Most analyzers
// exempt tests: they provoke on purpose what the suite forbids.
func (p *Package) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// Func pairs a function declaration that has a body with its types object.
type Func struct {
	Decl *ast.FuncDecl
	Obj  *types.Func
	// Test marks a declaration in a _test.go file.
	Test bool
}

// Funcs returns the package's function and method declarations with
// bodies, in source order, test files included (see Func.Test).
func (p *Package) Funcs() []Func {
	var out []Func
	for _, f := range p.Files {
		test := p.IsTestFile(f.Pos())
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
				out = append(out, Func{fd, obj, test})
			}
		}
	}
	return out
}

// PathHasSegment reports whether an import path contains seg as a "/"
// separated segment — the convention the suite's package classifiers use
// (and which makes testdata fixture trees named like real packages match
// the same rules).
func PathHasSegment(path, seg string) bool {
	for _, s := range strings.Split(path, "/") {
		if s == seg {
			return true
		}
	}
	return false
}

// cryptoSegments are the path segments of the crypto-bearing packages.
var cryptoSegments = []string{"core", "committee", "sharing", "pke", "paillier", "tte", "nizk", "field", "yoso"}

// CryptoBearing reports whether path is one of the packages that handle
// secret material, where cryptorand and zeroize apply.
func CryptoBearing(path string) bool {
	for _, seg := range cryptoSegments {
		if PathHasSegment(path, seg) {
			return true
		}
	}
	return false
}

// BoardPkg reports whether path is one of the board-facing packages, whose
// Post/Publish/Broadcast calls are publication to everyone.
func BoardPkg(path string) bool {
	return PathHasSegment(path, "transport") || PathHasSegment(path, "comm") ||
		PathHasSegment(path, "yoso") || PathHasSegment(path, "board")
}

// RecvNamed names fn's receiver's (possibly pointer-to) named type, "" for
// plain functions.
func RecvNamed(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// ShortFunc renders a callee as "pkgname.Recv.Name" for messages.
func ShortFunc(fn *types.Func) string {
	name := fn.Name()
	if recv := RecvNamed(fn); recv != "" {
		name = recv + "." + name
	}
	if fn.Pkg() != nil {
		name = fn.Pkg().Name() + "." + name
	}
	return name
}
