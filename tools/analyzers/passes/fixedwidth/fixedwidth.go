// Package fixedwidth flags raw +, -, * arithmetic on fixed.Value operands
// outside internal/fixed.
//
// A fixed.Value is a scaled int64; the semantics of adding or multiplying two
// of them depend on the scales they carry, and a raw Go operator silently
// produces a wrong-scale result (x*y carries scale S², x*k re-scales by k) or
// a silent wrap. All arithmetic must go through the Arith methods — Add, Mul,
// Dot, Rescale, the checked variants — which either rescale correctly or make
// the wrap observable. internal/fixed itself is exempt: it is the one place
// the raw representation is supposed to be manipulated.
//
// The pass is syntactic (see the analysis package doc): an operand counts as
// a fixed.Value when it is
//
//   - an identifier declared with type fixed.Value (or a slice/array of it)
//     in the enclosing function's parameters, results, or declarations;
//   - an index into such a slice, or a loop variable ranging over one;
//   - a selector whose field name is declared as fixed.Value in any struct
//     of the package (a syntactic pass cannot resolve receiver types, so
//     field names are matched package-wide);
//   - the result of calling a producer method (Add, Mul, Dot, FromFloat, ...)
//     on an arith-like receiver — an identifier or field of type fixed.Arith
//     or activation.Fixed, or the result of fixed.New/MustNew/fixed.Default;
//   - assigned from any expression of the above forms.
//
// Comparisons (<, ==, >=) and operations on plain ints stay legal — scales
// cancel in comparisons, and loop arithmetic is not value arithmetic.
// Suppress a deliberate raw manipulation with
// //csdlint:allow fixedwidth <reason>.
package fixedwidth

import (
	"go/ast"
	"go/token"
	"strings"

	"github.com/kfrida1/csdinf/tools/analyzers/analysis"
)

const fixedPath = "github.com/kfrida1/csdinf/internal/fixed"

// producers are the Arith / activation.Fixed methods that return fixed.Value
// (or accept and return it): calling one on an arith-like receiver yields a
// tracked operand.
var producers = map[string]bool{
	"Add": true, "Sub": true, "Mul": true, "Div": true,
	"Neg": true, "Abs": true, "Dot": true, "One": true,
	"FromFloat": true, "FromInt": true, "FromRaw": true, "Rescale": true,
	"AddChecked": true, "SubChecked": true, "MulChecked": true,
	"MulRaw": true, "DotChecked": true, "DotRaw": true,
	"QuantizeSlice": true,
	"Softsign":      true, "Sigmoid": true, "Tanh": true, "Apply": true,
}

// arithMakers are the internal/fixed package-level names whose results are
// arith-like.
var arithMakers = map[string]bool{"New": true, "MustNew": true, "Default": true}

var Analyzer = &analysis.Analyzer{
	Name: "fixedwidth",
	Doc:  "forbid raw +, -, * on fixed.Value operands outside internal/fixed",
	Run:  run,
}

var flaggedOps = map[token.Token]bool{
	token.ADD: true, token.SUB: true, token.MUL: true,
	token.ADD_ASSIGN: true, token.SUB_ASSIGN: true, token.MUL_ASSIGN: true,
}

func run(pass *analysis.Pass) {
	if pass.Pkg.Dir == "internal/fixed" || strings.HasPrefix(pass.Pkg.Dir, "internal/fixed/") {
		return
	}
	// Package-wide field-name sets: struct fields typed fixed.Value (value
	// operands) and fields typed fixed.Arith / activation.Fixed (producer
	// receivers).
	valueFields := map[string]bool{}
	arithFields := map[string]bool{}
	for _, f := range pass.Pkg.Files {
		fixedName := f.ImportName(fixedPath)
		if fixedName == "" {
			continue
		}
		collectFields(f, fixedName, valueFields, arithFields)
	}
	for _, f := range pass.Pkg.Files {
		fixedName := f.ImportName(fixedPath)
		if fixedName == "" {
			continue
		}
		for _, decl := range f.AST.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			c := &checker{
				pass: pass, file: f, fixedName: fixedName,
				valueFields: valueFields, arithFields: arithFields,
				values: map[string]bool{}, ariths: map[string]bool{},
			}
			c.checkFunc(fn)
		}
	}
}

// collectFields records struct field names by their declared type.
func collectFields(f *analysis.File, fixedName string, valueFields, arithFields map[string]bool) {
	ast.Inspect(f.AST, func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok {
			return true
		}
		for _, field := range st.Fields.List {
			var dst map[string]bool
			switch {
			case isValueType(field.Type, fixedName):
				dst = valueFields
			case isArithType(field.Type, fixedName):
				dst = arithFields
			default:
				continue
			}
			for _, name := range field.Names {
				dst[name.Name] = true
			}
		}
		return true
	})
}

// isValueType reports whether t denotes fixed.Value, possibly behind slices,
// arrays, or pointers.
func isValueType(t ast.Expr, fixedName string) bool {
	switch t := t.(type) {
	case *ast.ArrayType:
		return isValueType(t.Elt, fixedName)
	case *ast.StarExpr:
		return isValueType(t.X, fixedName)
	case *ast.SelectorExpr:
		id, ok := t.X.(*ast.Ident)
		return ok && id.Name == fixedName && t.Sel.Name == "Value"
	}
	return false
}

// isArithType reports whether t denotes fixed.Arith or activation.Fixed (the
// two method sets that produce fixed.Value results).
func isArithType(t ast.Expr, fixedName string) bool {
	sel, ok := t.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	return (id.Name == fixedName && sel.Sel.Name == "Arith") ||
		(id.Name == "activation" && sel.Sel.Name == "Fixed")
}

// checker walks one function body, growing the tracked-identifier sets in
// statement order and reporting raw arithmetic on tracked operands.
type checker struct {
	pass        *analysis.Pass
	file        *analysis.File
	fixedName   string
	valueFields map[string]bool
	arithFields map[string]bool
	values      map[string]bool // local identifiers holding fixed.Value (or slices)
	ariths      map[string]bool // local identifiers holding fixed.Arith / activation.Fixed
}

func (c *checker) checkFunc(fn *ast.FuncDecl) {
	c.addFieldList(fn.Type.Params)
	c.addFieldList(fn.Type.Results)
	if fn.Recv != nil {
		c.addFieldList(fn.Recv)
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeclStmt:
			if gd, ok := n.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok || vs.Type == nil {
						continue
					}
					c.trackNames(vs.Names, vs.Type)
				}
			}
		case *ast.AssignStmt:
			c.assign(n)
		case *ast.RangeStmt:
			// Ranging over a tracked slice yields tracked elements.
			if c.isValue(n.X) {
				if id, ok := n.Value.(*ast.Ident); ok {
					c.values[id.Name] = true
				}
			}
		case *ast.BinaryExpr:
			if flaggedOps[n.Op] && (c.isValue(n.X) || c.isValue(n.Y)) {
				c.pass.Reportf(c.file, n.OpPos,
					"raw %s on fixed.Value operands; use the fixed.Arith methods (or the checked variants), or annotate //csdlint:allow fixedwidth <reason>",
					n.Op)
			}
		case *ast.FuncLit:
			c.addFieldList(n.Type.Params)
			c.addFieldList(n.Type.Results)
		}
		return true
	})
}

func (c *checker) addFieldList(fl *ast.FieldList) {
	if fl == nil {
		return
	}
	for _, field := range fl.List {
		c.trackNames(field.Names, field.Type)
	}
}

func (c *checker) trackNames(names []*ast.Ident, t ast.Expr) {
	var dst map[string]bool
	switch {
	case isValueType(t, c.fixedName):
		dst = c.values
	case isArithType(t, c.fixedName):
		dst = c.ariths
	default:
		return
	}
	for _, name := range names {
		dst[name.Name] = true
	}
}

// assign grows the tracked sets from assignments and reports compound
// arithmetic assignments (+=, -=, *=) on tracked operands.
func (c *checker) assign(n *ast.AssignStmt) {
	if flaggedOps[n.Tok] {
		for i := range n.Lhs {
			var rhs ast.Expr
			if i < len(n.Rhs) {
				rhs = n.Rhs[i]
			}
			if c.isValue(n.Lhs[i]) || (rhs != nil && c.isValue(rhs)) {
				c.pass.Reportf(c.file, n.TokPos,
					"raw %s on fixed.Value operands; use the fixed.Arith methods (or the checked variants), or annotate //csdlint:allow fixedwidth <reason>",
					n.Tok)
			}
		}
		return
	}
	mark := func(lhs ast.Expr, value, arith bool) {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		if value {
			c.values[id.Name] = true
		}
		if arith {
			c.ariths[id.Name] = true
		}
	}
	if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
		// v, err := a.Div(x, y) / arith, err := fixed.New(s): the first
		// result carries the value.
		mark(n.Lhs[0], c.isValue(n.Rhs[0]), c.isArith(n.Rhs[0]))
		return
	}
	for i := range n.Lhs {
		if i < len(n.Rhs) {
			mark(n.Lhs[i], c.isValue(n.Rhs[i]), c.isArith(n.Rhs[i]))
		}
	}
}

// isValue reports whether e is a tracked fixed.Value operand.
func (c *checker) isValue(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return c.values[e.Name]
	case *ast.ParenExpr:
		return c.isValue(e.X)
	case *ast.UnaryExpr:
		return c.isValue(e.X)
	case *ast.IndexExpr:
		return c.isValue(e.X)
	case *ast.SelectorExpr:
		// p.qFCB, p.hQ — a field name declared fixed.Value somewhere in the
		// package. The receiver is deliberately ignored (no type info).
		return c.valueFields[e.Sel.Name]
	case *ast.CallExpr:
		sel, ok := e.Fun.(*ast.SelectorExpr)
		if !ok || !producers[sel.Sel.Name] {
			return false
		}
		return c.isArith(sel.X)
	case *ast.BinaryExpr:
		// A raw expression over tracked operands is itself a (wrong or
		// wrapped) fixed.Value: the taint propagates through assignments.
		return c.isValue(e.X) || c.isValue(e.Y)
	case *ast.TypeAssertExpr:
		return isValueType(e.Type, c.fixedName)
	}
	return false
}

// isArith reports whether e is an arith-like receiver: a tracked identifier,
// a field of type fixed.Arith / activation.Fixed, or a fixed.New /
// fixed.MustNew / fixed.Default expression.
func (c *checker) isArith(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return c.ariths[e.Name]
	case *ast.ParenExpr:
		return c.isArith(e.X)
	case *ast.SelectorExpr:
		if id, ok := e.X.(*ast.Ident); ok && id.Name == c.fixedName && arithMakers[e.Sel.Name] {
			return true
		}
		return c.arithFields[e.Sel.Name]
	case *ast.CallExpr:
		sel, ok := e.Fun.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == c.fixedName && arithMakers[sel.Sel.Name] {
			return true
		}
		// activation.NewFixed(a) is arith-like too.
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == "activation" && sel.Sel.Name == "NewFixed" {
			return true
		}
	}
	return false
}
