package lint

import (
	"go/ast"
	"go/types"
)

// HotPathAlloc polices the per-edge loops of the hot pipeline stages
// (internal/update, internal/reorder, internal/compute, and — since
// the stores grew per-vertex tiered representations — internal/graph:
// the code that runs once per edge per batch, millions of times a
// second at the paper's target rates). Inside a loop ranging over
// edges or neighbors it flags:
//
//   - fmt.Sprintf / Sprint / Sprintln / Errorf — formatting allocates
//     and reflects;
//   - map allocation (make(map...), map literals) — per-edge maps are
//     the classic accidental O(edges) allocation;
//   - time.Now() — a vDSO call per edge dominates small batches;
//     sample the clock per batch instead;
//   - function-literal creation — closures capturing loop state box
//     onto the heap each iteration;
//   - make of an Edge/Neighbor slice — a per-edge adjacency buffer is
//     an O(edges) allocation storm; carve from reusable scratch (the
//     epoch store's chunks, reorder.Partitioner) or hoist and reuse.
//
// Loops outside the three hot packages, and loops not ranging over
// Edge/Neighbor/Batch element types, are not constrained.
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc:  "no fmt.Sprintf, map allocation, time.Now, or closure creation inside per-edge loops of the hot stages",
	Run:  runHotPathAlloc,
}

// hotPackages are the import-path elements whose per-edge loops are
// allocation-policed.
var hotPackages = map[string]bool{
	"update":  true,
	"reorder": true,
	"compute": true,
	"graph":   true,
}

func runHotPathAlloc(prog *Program, report Reporter) {
	for _, pkg := range prog.Packages {
		if !hotPackages[lastPathElement(pkg.Path)] {
			continue
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if !rangesOverEdges(pkg, rng) {
					return true
				}
				checkHotLoop(pkg, rng.Body, report)
				// Nested ranges inside are checked as part of this
				// body walk; do not double-report.
				return false
			})
		}
	}
}

// rangesOverEdges reports whether the range statement iterates a
// slice of per-edge element types (graph.Edge, graph.Neighbor) or the
// edges of a graph.Batch.
func rangesOverEdges(pkg *Package, rng *ast.RangeStmt) bool {
	t := pkg.Info.Types[rng.X].Type
	if t == nil {
		return false
	}
	slice, ok := types.Unalias(t).Underlying().(*types.Slice)
	if !ok {
		return false
	}
	elem := namedOf(slice.Elem())
	if elem == nil {
		return false
	}
	switch elem.Obj().Name() {
	case "Edge", "Neighbor":
		return true
	}
	return false
}

// checkHotLoop flags allocating constructs in one per-edge loop body.
func checkHotLoop(pkg *Package, body ast.Node, report Reporter) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			report(n.Pos(), "closure created inside a per-edge loop: each iteration heap-allocates the capture; hoist it out of the loop")
			return false
		case *ast.CallExpr:
			if f := calleeFunc(pkg.Info, n); f != nil && f.Pkg() != nil {
				switch f.Pkg().Path() + "." + f.Name() {
				case "fmt.Sprintf", "fmt.Sprint", "fmt.Sprintln", "fmt.Errorf":
					report(n.Pos(), "%s.%s inside a per-edge loop: formatting allocates per edge; build messages outside the loop or use the obs counters", f.Pkg().Name(), f.Name())
				case "time.Now":
					report(n.Pos(), "time.Now inside a per-edge loop: sample the clock once per batch, not per edge")
				}
				return true
			}
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "make" && len(n.Args) > 0 {
				if isMapType(pkg, n.Args[0]) {
					report(n.Pos(), "map allocated inside a per-edge loop: hoist the make outside the loop and clear/reuse it per batch")
				}
				if isEdgeSliceType(pkg, n.Args[0]) {
					report(n.Pos(), "per-edge slice allocated inside a per-edge loop: carve from a batch arena or hoist and reuse the buffer")
				}
			}
		case *ast.CompositeLit:
			if t := pkg.Info.Types[n].Type; t != nil {
				if _, ok := types.Unalias(t).Underlying().(*types.Map); ok {
					report(n.Pos(), "map literal inside a per-edge loop: hoist the allocation outside the loop")
				}
			}
		}
		return true
	})
}

// isMapType reports whether the type expression denotes a map.
func isMapType(pkg *Package, expr ast.Expr) bool {
	t := pkg.Info.Types[expr].Type
	if t == nil {
		return false
	}
	_, ok := types.Unalias(t).Underlying().(*types.Map)
	return ok
}

// isEdgeSliceType reports whether the type expression denotes a slice
// of the per-edge element types (Edge, Neighbor).
func isEdgeSliceType(pkg *Package, expr ast.Expr) bool {
	t := pkg.Info.Types[expr].Type
	if t == nil {
		return false
	}
	slice, ok := types.Unalias(t).Underlying().(*types.Slice)
	if !ok {
		return false
	}
	elem := namedOf(slice.Elem())
	if elem == nil {
		return false
	}
	switch elem.Obj().Name() {
	case "Edge", "Neighbor":
		return true
	}
	return false
}
