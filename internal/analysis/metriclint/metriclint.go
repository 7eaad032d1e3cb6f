// Package metriclint keeps the obs.Registry metric surface consistent:
// every metric registered anywhere in the tree (Registry.Counter, Gauge,
// Histogram, Func) must be named by a snake_case string literal, and each
// name must be registered exactly once across the whole program — a
// duplicate registration panics at runtime, which a test that never
// constructs that exact server shape will not catch. The registry mirrors
// these names into expvar, so they are the tree's only expvar names.
//
// Registration is also forbidden inside //vetkit:hotpath functions. Registering takes the
// registry lock and allocates; hotpath code must only *observe* into
// instruments it was handed at construction time.
//
// The uniqueness check aggregates across all analyzed packages through
// the run's shared Program state, so two different packages registering
// the same name into one binary's registry are caught even though each
// package looks fine alone.
package metriclint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strconv"
	"sync"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "metriclint",
	Doc:  "obs.Registry metric names are snake_case literals registered exactly once, never from a hotpath",
	Run:  run,
}

var snakeCase = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// registrars are the Registry methods whose first argument names the
// metric.
var registrars = map[string]bool{
	"Counter":   true,
	"Gauge":     true,
	"Histogram": true,
	"Func":      true,
}

// registry is the program-wide name table living in Program.State.
type registry struct {
	mu    sync.Mutex
	names map[string]token.Position
}

func run(pass *analysis.Pass) error {
	reg := pass.Prog.State("metriclint.registry", func() any {
		return &registry{names: map[string]token.Position{}}
	}).(*registry)

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			// Track the enclosing declaration so registrations inside a
			// //vetkit:hotpath function are attributable to it. Function
			// literals inherit the enclosing declaration's annotation: a
			// closure built inside a hotpath runs on the hotpath.
			var enclosing *types.Func
			if fd, ok := decl.(*ast.FuncDecl); ok {
				enclosing, _ = pass.TypesInfo.Defs[fd.Name].(*types.Func)
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || !registrars[sel.Sel.Name] {
					return true
				}
				if !isRegistryMethod(pass, sel) || len(call.Args) == 0 {
					return true
				}
				if pass.Prog.FuncAnnotated(enclosing, analysis.DirectiveHotPath) {
					pass.Reportf(call.Pos(), "metric registration inside hotpath function %s: Registry.%s locks and allocates; register at construction time and pass the instrument in", enclosing.Name(), sel.Sel.Name)
				}
				checkName(pass, reg, sel.Sel.Name, call.Args[0])
				return true
			})
		}
	}
	return nil
}

// isRegistryMethod reports whether sel resolves to a method on a type
// named Registry in a package named obs — structural recognition, so the
// analyzer works both against repro/internal/obs and the test fixtures'
// stub obs package.
func isRegistryMethod(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	fn, _ := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Name() != "obs" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	return ok && named.Obj().Name() == "Registry"
}

func checkName(pass *analysis.Pass, reg *registry, fn string, arg ast.Expr) {
	lit, ok := arg.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		pass.Reportf(arg.Pos(), "obs.Registry.%s name must be a string literal (found %s), so the metric surface is greppable", fn, exprKind(arg))
		return
	}
	name, err := strconv.Unquote(lit.Value)
	if err != nil {
		return
	}
	if !snakeCase.MatchString(name) {
		pass.Reportf(arg.Pos(), "metric name %q is not snake_case (want %s)", name, snakeCase)
	}
	pos := pass.Fset.Position(arg.Pos())
	reg.mu.Lock()
	first, dup := reg.names[name]
	if !dup {
		reg.names[name] = pos
	}
	reg.mu.Unlock()
	if dup {
		pass.Reportf(arg.Pos(), "metric name %q registered twice (first at %s); a duplicate registration panics at runtime", name, first)
	}
}

func exprKind(e ast.Expr) string {
	switch e.(type) {
	case *ast.Ident:
		return "a variable"
	case *ast.CallExpr:
		return "a call"
	case *ast.BinaryExpr:
		return "an expression"
	default:
		return "a non-literal"
	}
}
