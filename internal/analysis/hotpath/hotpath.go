// Package hotpath enforces the repo's zero-allocation serving contract at
// compile time. Functions annotated //vetkit:hotpath (Model.scorePair and
// its callees, featstore.ComputeRowAppend, rules.ApplyRowBitset, the
// metrics scratch paths, the match-store probe path) must not contain
// allocation-introducing constructs, and may only call other hotpath
// functions or explicitly trusted ones. The dynamic guard for the same
// contract is model_alloc_test.go's 0 allocs/op pins; this analyzer flags
// the regression at vet time, before a benchmark runs.
//
// Flagged inside an annotated function:
//
//   - make of any kind (growth paths carry //vetkit:allow hotpath)
//   - new, &T{...}, slice and map composite literals
//   - string concatenation (+ / +=)
//   - string<->[]byte/[]rune conversions, except the compiler-recognized
//     alloc-free m[string(b)] map-index form
//   - conversions to interface types
//   - function literals (closures)
//   - fmt.* calls, named specially because they both allocate and convert
//     every argument to an interface
//   - defer and go statements
//   - calls to functions that are neither //vetkit:hotpath themselves nor
//     in the trusted set (TrustedPackages / TrustedFuncs)
//   - dynamic calls (function values, interface methods), which the
//     analyzer cannot prove allocation-free
//
// Deliberate exceptions — amortized buffer growth, cold error/panic
// branches — are suppressed per line with //vetkit:allow hotpath <reason>,
// keeping every waiver visible in the diff that introduces it.
package hotpath

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc:  "//vetkit:hotpath functions must be allocation-free and only call hotpath or trusted functions",
	Run:  run,
}

// TrustedPackages are callee packages allowed wholesale in hot paths:
// stdlib packages whose relevant functions do not allocate, plus internal
// packages whose hot entry points are pinned by their own alloc tests.
var TrustedPackages = map[string]bool{
	"math":                 true,
	"math/bits":            true,
	"sort":                 true, // Search* only reached from hot paths
	"slices":               true,
	"sync":                 true,
	"sync/atomic":          true,
	"repro/internal/stats": true, // pure math; pinned by make allocs
}

// TrustedFuncs are individually trusted callees (exact types.Func.FullName
// matches): alloc-free by contract and pinned by `make allocs`, but living
// in packages that are not alloc-free wholesale.
var TrustedFuncs = map[string]bool{
	"(*repro/internal/nn.Network).PredictScratch":      true,
	"(*repro/internal/blocking.TokenScratch).Tokenize": true,
	"(*repro/internal/blocking.TokenScratch).Token":    true,
	"(*repro/internal/core.Model).Influence":           true,
	"(*repro/internal/metrics.Prepared).Reset":         true, // pinned by TestResetSteadyStateAllocs
	"repro/internal/metrics.RebuildRow":                true, // pinned by TestRebuildRowSteadyStateAllocs
	"(repro/internal/classifier.Calibration).Bucket":   true, // binary search over a fixed table
	"repro/internal/strutil.AppendNormalized":          true, // append-into normalization; growth is amortized against the reused buffer
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil || !pass.Prog.FuncAnnotated(fn, analysis.DirectiveHotPath) {
				continue
			}
			checkBody(pass, fd)
		}
	}
	return nil
}

func checkBody(pass *analysis.Pass, fd *ast.FuncDecl) {
	// parents tracks the enclosing expression so conversions can recognize
	// the alloc-free m[string(b)] map-index idiom.
	parents := map[ast.Node]ast.Node{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		recordChildren(parents, n)
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "hot path %s contains a closure (func literal allocates)", fd.Name.Name)
			return false // its body is cold by definition once flagged
		case *ast.DeferStmt:
			pass.Reportf(n.Pos(), "hot path %s contains defer (deferred call may allocate)", fd.Name.Name)
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "hot path %s spawns a goroutine", fd.Name.Name)
		case *ast.CompositeLit:
			checkCompositeLit(pass, fd, parents, n)
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(pass, n.X) {
				pass.Reportf(n.Pos(), "hot path %s concatenates strings", fd.Name.Name)
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isString(pass, n.Lhs[0]) {
				pass.Reportf(n.Pos(), "hot path %s concatenates strings", fd.Name.Name)
			}
		case *ast.CallExpr:
			checkCall(pass, fd, parents, n)
		}
		return true
	})
}

func recordChildren(parents map[ast.Node]ast.Node, n ast.Node) {
	switch n := n.(type) {
	case *ast.IndexExpr:
		parents[n.Index] = n
		parents[n.X] = n
	case *ast.CallExpr:
		for _, a := range n.Args {
			parents[a] = n
		}
	case *ast.UnaryExpr:
		parents[n.X] = n
	}
}

func checkCompositeLit(pass *analysis.Pass, fd *ast.FuncDecl, parents map[ast.Node]ast.Node, lit *ast.CompositeLit) {
	t := pass.TypesInfo.Types[lit].Type
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Map:
		pass.Reportf(lit.Pos(), "hot path %s builds a map literal", fd.Name.Name)
	case *types.Slice:
		pass.Reportf(lit.Pos(), "hot path %s builds a slice literal", fd.Name.Name)
	}
	// Value struct/array literals stay on the stack unless their address is
	// taken; &T{...} is the escaping form worth flagging.
	if p, ok := parents[ast.Node(lit)].(*ast.UnaryExpr); ok && p.Op == token.AND {
		pass.Reportf(lit.Pos(), "hot path %s heap-allocates a composite literal (&%s{...})", fd.Name.Name, types.TypeString(t, nil))
	}
}

func checkCall(pass *analysis.Pass, fd *ast.FuncDecl, parents map[ast.Node]ast.Node, call *ast.CallExpr) {
	// Conversion, not a call?
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		checkConversion(pass, fd, parents, call, tv.Type)
		return
	}

	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[fun]
		if b, ok := obj.(*types.Builtin); ok {
			checkBuiltin(pass, fd, call, b.Name())
			return
		}
		checkCallee(pass, fd, call, obj)
	case *ast.SelectorExpr:
		obj := pass.TypesInfo.Uses[fun.Sel]
		checkCallee(pass, fd, call, obj)
	default:
		pass.Reportf(call.Pos(), "hot path %s makes a dynamic call the analyzer cannot prove allocation-free", fd.Name.Name)
	}
}

func checkBuiltin(pass *analysis.Pass, fd *ast.FuncDecl, call *ast.CallExpr, name string) {
	switch name {
	case "make":
		// Every make allocates (maps and chans always; slices unless the
		// compiler stack-allocates, which hot paths must not rely on).
		// Amortized growth paths opt out per line with //vetkit:allow.
		pass.Reportf(call.Pos(), "hot path %s calls make", fd.Name.Name)
	case "new":
		pass.Reportf(call.Pos(), "hot path %s calls new", fd.Name.Name)
	}
	// len/cap/append/copy/clear/min/max/delete/panic are allowed: append
	// growth against a pre-sized buffer is the repo's amortized idiom, and
	// panic is a cold invariant branch by construction.
}

func checkConversion(pass *analysis.Pass, fd *ast.FuncDecl, parents map[ast.Node]ast.Node, call *ast.CallExpr, to types.Type) {
	if len(call.Args) != 1 {
		return
	}
	from := pass.TypesInfo.Types[call.Args[0]].Type
	if from == nil {
		return
	}
	if types.IsInterface(to.Underlying()) && !types.IsInterface(from.Underlying()) {
		pass.Reportf(call.Pos(), "hot path %s converts %s to interface %s (boxing allocates)",
			fd.Name.Name, types.TypeString(from, nil), types.TypeString(to, nil))
		return
	}
	if allocatingStringConv(from, to) {
		// m[string(b)] is compiled without allocation when the conversion
		// is directly a map index — the one sanctioned form.
		if idx, ok := parents[ast.Node(call)].(*ast.IndexExpr); ok && idx.Index == call {
			if t := pass.TypesInfo.Types[idx.X].Type; t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					return
				}
			}
		}
		pass.Reportf(call.Pos(), "hot path %s converts %s to %s (copies the data)",
			fd.Name.Name, types.TypeString(from, nil), types.TypeString(to, nil))
	}
}

// allocatingStringConv reports string<->[]byte/[]rune conversions.
func allocatingStringConv(from, to types.Type) bool {
	return (isStringType(from) && isByteOrRuneSlice(to)) || (isByteOrRuneSlice(from) && isStringType(to))
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	e, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (e.Kind() == types.Byte || e.Kind() == types.Rune || e.Kind() == types.Uint8 || e.Kind() == types.Int32)
}

func checkCallee(pass *analysis.Pass, fd *ast.FuncDecl, call *ast.CallExpr, obj types.Object) {
	fn, ok := obj.(*types.Func)
	if !ok {
		// A variable of function type: dynamic dispatch.
		pass.Reportf(call.Pos(), "hot path %s makes a dynamic call the analyzer cannot prove allocation-free", fd.Name.Name)
		return
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if types.IsInterface(sig.Recv().Type().Underlying()) {
			pass.Reportf(call.Pos(), "hot path %s calls interface method %s (dynamic dispatch, unverifiable)", fd.Name.Name, fn.Name())
			return
		}
	}
	if fn.Pkg() == nil {
		return // universe scope (error.Error etc. handled above)
	}
	if fn.Pkg().Path() == "fmt" {
		pass.Reportf(call.Pos(), "hot path %s calls fmt.%s (allocates and boxes its arguments)", fd.Name.Name, fn.Name())
		return
	}
	if pass.Prog.FuncAnnotated(fn, analysis.DirectiveHotPath) {
		return
	}
	if TrustedPackages[fn.Pkg().Path()] || TrustedFuncs[fn.FullName()] {
		return
	}
	pass.Reportf(call.Pos(), "hot path %s calls %s, which is neither //vetkit:hotpath nor trusted", fd.Name.Name, fn.FullName())
}

func isString(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.Types[e].Type
	return t != nil && isStringType(t)
}
