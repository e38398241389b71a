package exp

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// hammerLoops returns "file:line" for every loop in src whose body
// issues two consecutive Access*/Activate calls with different
// arguments: a hand-rolled alternating hammer. Precharge calls between
// the two are skipped, so the closed-page {ACT A; PRE; ACT B; PRE}
// shape counts too. Such loops belong on the batched kernels
// (memctrl.Controller.HammerPairs, attack.ManySided,
// dram.Device.HammerPairCycles), which are proven bit-identical to
// them and cost a fraction per pair.
func hammerLoops(fset *token.FileSet, file *ast.File, src []byte) []string {
	text := func(n ast.Node) string {
		return string(src[fset.Position(n.Pos()).Offset:fset.Position(n.End()).Offset])
	}
	hammerCall := func(s ast.Stmt) (*ast.CallExpr, string) {
		var call ast.Expr
		switch s := s.(type) {
		case *ast.ExprStmt:
			call = s.X
		case *ast.AssignStmt:
			if len(s.Rhs) == 1 {
				call = s.Rhs[0]
			}
		}
		c, ok := call.(*ast.CallExpr)
		if !ok {
			return nil, ""
		}
		sel, ok := c.Fun.(*ast.SelectorExpr)
		if !ok {
			return nil, ""
		}
		return c, sel.Sel.Name
	}
	var found []string
	ast.Inspect(file, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch l := n.(type) {
		case *ast.ForStmt:
			body = l.Body
		case *ast.RangeStmt:
			body = l.Body
		default:
			return true
		}
		var prev *ast.CallExpr
		for _, s := range body.List {
			c, name := hammerCall(s)
			switch {
			case name == "Precharge":
				continue
			case name == "Activate" || strings.HasPrefix(name, "Access"):
				if prev != nil && argsText(text, prev) != argsText(text, c) {
					found = append(found, fset.Position(n.Pos()).String())
					return true
				}
				prev = c
			default:
				prev = nil
			}
		}
		return true
	})
	return found
}

func argsText(text func(ast.Node) string, c *ast.CallExpr) string {
	var parts []string
	for _, a := range c.Args {
		parts = append(parts, text(a))
	}
	return strings.Join(parts, ", ")
}

func scanHammerLoops(t *testing.T, name string, src []byte) []string {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, name, src, 0)
	if err != nil {
		t.Fatal(err)
	}
	return hammerLoops(fset, file, src)
}

// TestNoHandRolledHammerLoops keeps the experiments and attack kernels
// on the batched hammer paths: no loop in internal/exp or
// internal/attack may alternate Access*/Activate calls by hand.
func TestNoHandRolledHammerLoops(t *testing.T) {
	var files []string
	for _, dir := range []string{".", filepath.Join("..", "attack")} {
		m, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range m {
			if !strings.HasSuffix(f, "_test.go") {
				files = append(files, f)
			}
		}
	}
	if len(files) < 10 {
		t.Fatalf("scanned only %d files: the package layout moved", len(files))
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, at := range scanHammerLoops(t, f, src) {
			t.Errorf("%s: hand-rolled alternating hammer loop; use Controller.HammerPairs, attack.ManySided or Device.HammerPairCycles", at)
		}
	}
}

// TestHammerLoopScanFlagsKnownShapes pins the scanner itself, so the
// test above cannot pass by flagging nothing: the open-page and
// closed-page hammer loops the experiments used to carry are flagged,
// and the loops that stay (one access per iteration, or two accesses
// to the same place) are not.
func TestHammerLoopScanFlagsKnownShapes(t *testing.T) {
	src := []byte(`package p

func flagged() {
	for k := 0; k < 15000; k++ {
		s.Ctrl.AccessCoord(coord(0, v-1), false, 0)
		s.Ctrl.AccessCoord(coord(0, v+1), false, 0)
	}
	for p := 0; p < n; p++ {
		dev.Activate(0, 59, now)
		dev.Precharge(0)
		dev.Activate(0, 61, now)
		dev.Precharge(0)
		now += period
	}
	for _, v := range active {
		_, _ = ctrl.AccessRanked(0, memctrl.Coord{Row: v - 1}, false, 0)
		_, _ = ctrl.AccessRanked(0, memctrl.Coord{Row: v + 1}, false, 0)
	}
}

func kept() {
	for r := 0; r < rounds; r++ {
		for _, row := range aggressors {
			c.AccessRanked(rank, memctrl.Coord{Bank: bank, Row: row}, false, 0)
		}
	}
	for i := 0; i < n; i++ {
		c.AccessCoord(co, false, 0)
		c.AccessCoord(co, false, 0)
	}
	for i := 0; i < n; i++ {
		c.AccessCoord(a, false, 0)
		i++
		c.AccessCoord(b, false, 0)
	}
}
`)
	got := scanHammerLoops(t, "shapes.go", src)
	want := []string{"shapes.go:4:2", "shapes.go:8:2", "shapes.go:15:2"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("flagged %v, want %v", got, want)
	}
}
