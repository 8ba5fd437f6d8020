// Package analysis is the c4vet static-analysis suite: a small,
// self-contained analyzer framework plus the analyzers that encode this
// repository's determinism and correctness invariants (see README.md
// "Static analysis"). The core contract being guarded is byte-identical
// replay — serial, parallel, one-shot and served runs of the same seed
// must produce the same bytes — and every analyzer here corresponds to a
// bug class that has actually shipped and been fixed by hand before.
//
// The Analyzer/Pass/Diagnostic shape deliberately mirrors
// golang.org/x/tools/go/analysis so the suite can migrate onto the
// upstream framework (multichecker, unitchecker, go vet -vettool) once
// that dependency is vendorable. This build environment is offline with
// an empty module cache, so the loader and driver here are stdlib-only:
// `go list` for package discovery, go/parser + go/types for syntax and
// type information, and a source importer for dependencies.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one named static check. Run inspects a single package via
// the Pass and reports findings through it; a non-nil error aborts the
// whole c4vet run (reserved for internal failures, not findings).
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //c4vet:allow suppression directives. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description: the invariant guarded and
	// the bug class that motivated it.
	Doc string
	// Run executes the analyzer over one package.
	Run func(*Pass) error
}

// Pass carries the per-package inputs an analyzer works from, mirroring
// x/tools' analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// All returns the full c4vet analyzer suite. The deprecated-use analyzer
// accumulates cross-package state, so each call returns a fresh instance
// set; a driver run must use one All() result end to end.
func All() []*Analyzer {
	return []*Analyzer{
		MapIterFloat,
		WallClock,
		GlobalRand,
		SinkErr,
		CtxLeak,
		TimeConfuse,
		Layering,
		Deprecated(),
	}
}

// walkStack traverses every node of every file, invoking fn with the
// node and the stack of its ancestors (stack[len-1] == n). It is the
// shared traversal for analyzers that need enclosing-scope context.
func walkStack(files []*ast.File, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			fn(n, stack)
			return true
		})
	}
}

// funcObj resolves an expression to the *types.Func it refers to (via a
// selector or bare identifier), or nil.
func funcObj(info *types.Info, e ast.Expr) *types.Func {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		f, _ := info.Uses[e.Sel].(*types.Func)
		return f
	case *ast.Ident:
		f, _ := info.Uses[e].(*types.Func)
		return f
	}
	return nil
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

// rootIdent unwraps selectors, indexing and derefs down to the base
// identifier of an assignable expression (s.total -> s, m[k] -> m),
// returning nil when the base is not a plain identifier.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}
