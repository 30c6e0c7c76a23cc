// Package analysis is a self-contained static-analysis framework plus the
// repo's analyzer suite: compile-time enforcement of the cross-cutting
// contracts the reproduction's measurements depend on (determinism of the
// measured packages, counted-I/O accounting, epoch pin/unpin and latched-
// error lifecycle, allocation-free hot paths), alongside reimplementations
// of the staticcheck-class standard passes (nilness, unusedresult,
// sortslice) so cmd/repolint is the single lint entrypoint.
//
// The framework mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer, Pass, Diagnostic, analysistest-style golden packages) but is
// built entirely on the standard library's go/ast, go/parser, go/types and
// go/importer, because this repository builds offline with no module
// dependencies.
//
// # Annotation grammar
//
// Analyzers are driven by three comment annotations:
//
//   - `//repro:measured` in a package's doc comment marks the package as one
//     whose outputs must stay bit-identical to the seed goldens; the
//     determinism analyzer applies only to annotated packages.
//   - `//repro:hotpath` in a function's doc comment opts the function into
//     the hot-path allocation analyzer.
//   - `//repro:guardedBy <field>` on a struct field declares which mutex
//     field must be held to touch it; `//repro:locked` on a function states
//     that the discipline is satisfied externally (the caller holds the
//     lock, or the value is not yet shared).
//   - `//repro:io-boundary` on a function marks it as a sanctioned wrapper
//     that may perform raw pager reads / node decodes.
//
// False positives are suppressed at the diagnostic site with
// `//repolint:ignore <analyzer> <reason>` on the same line or the line
// above; the reason is mandatory so every suppression is documented.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check. Run inspects the Pass and reports
// diagnostics through pass.Reportf.
type Analyzer struct {
	Name string // short lower-case identifier, used by //repolint:ignore
	Doc  string // one-line description
	Run  func(*Pass) error
}

// Pass holds one analyzed package: its syntax, its type information, and the
// diagnostic sink.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// Diagnostic is one finding, positioned at Pos.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes every analyzer over the package and returns the surviving
// diagnostics: findings suppressed by a `//repolint:ignore` comment are
// dropped, and ignore comments missing their mandatory reason are turned
// into diagnostics themselves. Diagnostics are sorted by position.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	sup, bad := collectIgnores(pkg.Fset, pkg.Files)
	out = append(out, bad...)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
		}
		for _, d := range pass.diags {
			if !sup.suppressed(d) {
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

// suppressions maps file -> line -> set of analyzer names ignored there. An
// ignore comment covers its own line and, when it stands alone on a line,
// the first following line that carries code.
type suppressions map[string]map[int]map[string]bool

func (s suppressions) suppressed(d Diagnostic) bool {
	lines := s[d.Pos.Filename]
	for _, l := range []int{d.Pos.Line, d.Pos.Line - 1} {
		if set := lines[l]; set[d.Analyzer] || set["all"] {
			return true
		}
	}
	return false
}

// collectIgnores parses `//repolint:ignore <analyzer> <reason>` comments.
// The reason is mandatory: an ignore without one becomes a diagnostic so
// suppressions are always documented.
func collectIgnores(fset *token.FileSet, files []*ast.File) (suppressions, []Diagnostic) {
	sup := make(suppressions)
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "repolint:ignore") {
					continue
				}
				pos := fset.Position(c.Pos())
				fields := strings.Fields(strings.TrimPrefix(text, "repolint:ignore"))
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{
						Pos:      pos,
						Analyzer: "repolint",
						Message:  "repolint:ignore needs an analyzer name and a reason (`//repolint:ignore <analyzer> <reason>`)",
					})
					continue
				}
				lines := sup[pos.Filename]
				if lines == nil {
					lines = make(map[int]map[string]bool)
					sup[pos.Filename] = lines
				}
				if lines[pos.Line] == nil {
					lines[pos.Line] = make(map[string]bool)
				}
				lines[pos.Line][fields[0]] = true
			}
		}
	}
	return sup, bad
}

// ---- shared AST/annotation helpers used by the analyzers ----

// hasAnnotation reports whether the comment group contains the given
// annotation marker (e.g. "repro:hotpath") as its own comment line.
func hasAnnotation(doc *ast.CommentGroup, marker string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == marker || strings.HasPrefix(text, marker+" ") {
			return true
		}
	}
	return false
}

// annotationArg returns the first argument of an annotation line like
// `//repro:guardedBy mu`, or "" when absent.
func annotationArg(doc *ast.CommentGroup, marker string) string {
	if doc == nil {
		return ""
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if rest, ok := strings.CutPrefix(text, marker+" "); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				return fields[0]
			}
		}
	}
	return ""
}

// packageAnnotated reports whether any file's package doc carries marker.
func packageAnnotated(files []*ast.File, marker string) bool {
	for _, f := range files {
		if hasAnnotation(f.Doc, marker) {
			return true
		}
	}
	return false
}

// funcFor returns the innermost function declaration or literal enclosing
// pos within file, preferring declarations (literals inherit the enclosing
// declaration's annotations).
func funcDeclFor(file *ast.File, pos token.Pos) *ast.FuncDecl {
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos <= fd.End() {
			return fd
		}
	}
	return nil
}

// exprString renders a canonical one-line form of an expression for
// structural matching (e.g. pairing Pin/Unpin receivers and arguments).
func exprString(e ast.Expr) string {
	var b strings.Builder
	writeExpr(&b, e)
	return b.String()
}

func writeExpr(b *strings.Builder, e ast.Expr) {
	switch e := e.(type) {
	case *ast.Ident:
		b.WriteString(e.Name)
	case *ast.SelectorExpr:
		writeExpr(b, e.X)
		b.WriteByte('.')
		b.WriteString(e.Sel.Name)
	case *ast.StarExpr:
		b.WriteByte('*')
		writeExpr(b, e.X)
	case *ast.UnaryExpr:
		b.WriteString(e.Op.String())
		writeExpr(b, e.X)
	case *ast.IndexExpr:
		writeExpr(b, e.X)
		b.WriteByte('[')
		writeExpr(b, e.Index)
		b.WriteByte(']')
	case *ast.BasicLit:
		b.WriteString(e.Value)
	case *ast.CallExpr:
		writeExpr(b, e.Fun)
		b.WriteByte('(')
		for i, a := range e.Args {
			if i > 0 {
				b.WriteByte(',')
			}
			writeExpr(b, a)
		}
		b.WriteByte(')')
	case *ast.ParenExpr:
		writeExpr(b, e.X)
	case *ast.SliceExpr:
		writeExpr(b, e.X)
		b.WriteString("[:]")
	default:
		fmt.Fprintf(b, "<%T>", e)
	}
}

// sliceBase strips slice expressions and parens: base(x[a:b]) == base(x).
func sliceBase(e ast.Expr) ast.Expr {
	for {
		switch t := e.(type) {
		case *ast.SliceExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		default:
			return e
		}
	}
}

// namedOrigin unwraps pointers and returns the named type's package path and
// name, or ("", "") when the type is not (a pointer to) a named type.
func namedOrigin(t types.Type) (pkgPath, name string) {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return "", obj.Name()
	}
	return obj.Pkg().Path(), obj.Name()
}

// calleeFunc resolves the called function or method object, or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}
