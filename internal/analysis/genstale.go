package analysis

import (
	"go/ast"
	"go/token"
	"go/types"

	"ordu/internal/analysis/cfg"
)

// NewGenstale builds the genstale analyzer: handles, unstable borrowed
// views and generation values must not flow across an invalidation point —
// a call whose summary carries the mutates-structure fact (//ordlint:
// writer methods of configured owners, //ordlint:mutates functions) on the
// same root — without re-derivation. This extends borrowck's lock-release
// staleness to structural staleness: a node id may dangle after a Delete
// rebalances the arena, a ChildHi window after an Insert splits the node,
// a generation read after a mutation bumps the counter. Slot-class values
// and configured stable views survive (the slot-stability contract).
func NewGenstale(hc *HandleConfig) *Analyzer {
	a := &Analyzer{
		Name:  "genstale",
		Doc:   "handles, unstable views and generation values must be re-derived after a mutates-structure call on their root",
		Layer: "handle",
	}
	a.Run = func(pass *Pass) {
		if hc == nil || !hc.Packages[pass.PkgPath] {
			return
		}
		g := pass.Facts.Graph
		for _, n := range g.Nodes {
			if n.Pkg.Path != pass.PkgPath || n.Decl == nil || n.Decl.Body == nil {
				continue
			}
			tr := newHandleTracker(n, g, pass.Facts.Handles, hc)
			tr.solve()
			checkGenStale(pass, tr, n)
		}
	}
	return a
}

// genValue describes one tracked local: what kind of invalidatable value
// it holds and which structure roots it was derived from.
type genValue struct {
	kinds string // rendered for diagnostics ("node handle", "view", ...)
	roots map[types.Object]bool
}

// genstaleCtx carries the per-function state of one genstale run.
type genstaleCtx struct {
	tr      *handleTracker
	info    *types.Info
	facts   map[*FuncNode]*HandleInfo
	borrows map[*FuncNode]*BorrowInfo
	hc      *HandleConfig
	tracked map[types.Object]*genValue
}

const (
	gKill = iota
	gDef
	gUse
)

type gev struct {
	kind int
	obj  types.Object
	root types.Object
	name string // killing callee, for diagnostics
	pos  token.Pos
}

func checkGenStale(pass *Pass, tr *handleTracker, n *FuncNode) {
	ck := &genstaleCtx{
		tr:      tr,
		info:    pass.TypesInfo,
		facts:   pass.Facts.Handles,
		borrows: pass.Facts.Borrows,
		hc:      tr.hc,
		tracked: map[types.Object]*genValue{},
	}
	// Prepass: find the locals holding invalidatable values and their
	// roots. Assignment chains (n2 := n) inherit roots, so iterate to a
	// fixed point (root sets only grow).
	for changed := true; changed; {
		changed = false
		tr.ownInspect(func(nd ast.Node) bool {
			switch s := nd.(type) {
			case *ast.AssignStmt:
				if len(s.Lhs) == len(s.Rhs) {
					for i, lhs := range s.Lhs {
						changed = ck.trackDef(lhs, s.Rhs[i]) || changed
					}
				} else if len(s.Rhs) == 1 {
					// Tuple from a call: the tracked value is the first
					// result by the handle-first convention.
					changed = ck.trackDef(s.Lhs[0], s.Rhs[0]) || changed
				}
			case *ast.ValueSpec:
				for i, name := range s.Names {
					if i < len(s.Values) {
						changed = ck.trackDef(name, s.Values[i]) || changed
					}
				}
			}
			return true
		})
	}
	if len(ck.tracked) == 0 {
		return
	}

	// Event lists per CFG block, borrowck-style. Deferred calls run at
	// exit and are excluded: a deferred cleanup mutation cannot stale a
	// use that textually follows it.
	graph := cfg.New(n.Decl.Body)
	events := make([][]gev, len(graph.Blocks))
	haveKills := false
	for _, b := range graph.Blocks {
		for _, node := range b.Nodes {
			if _, isDefer := node.(*ast.DeferStmt); isDefer {
				continue
			}
			ck.emit(node, &events[b.Index])
		}
	}
	for _, evs := range events {
		for _, ev := range evs {
			if ev.kind == gKill {
				haveKills = true
			}
		}
	}
	if !haveKills {
		return
	}

	// May-stale fixed point (union meet): a kill on some path to a use is
	// a finding — the mutation does happen on that path.
	entry := make([]map[types.Object]bool, len(graph.Blocks))
	for i := range entry {
		entry[i] = map[types.Object]bool{}
	}
	apply := func(stale map[types.Object]bool, ev gev) {
		switch ev.kind {
		case gKill:
			for obj, gv := range ck.tracked {
				if gv.roots[ev.root] {
					stale[obj] = true
				}
			}
		case gDef:
			delete(stale, ev.obj)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, b := range graph.Blocks {
			stale := map[types.Object]bool{}
			for o := range entry[b.Index] {
				stale[o] = true
			}
			for _, ev := range events[b.Index] {
				apply(stale, ev)
			}
			for _, succ := range b.Succs {
				for o := range stale {
					if !entry[succ.Index][o] {
						entry[succ.Index][o] = true
						changed = true
					}
				}
			}
		}
	}

	// Replay in block order, reporting the first stale use per object.
	reported := map[types.Object]bool{}
	killer := map[types.Object]string{}
	for _, b := range graph.Blocks {
		stale := map[types.Object]bool{}
		for o := range entry[b.Index] {
			stale[o] = true
		}
		for _, ev := range events[b.Index] {
			switch ev.kind {
			case gKill:
				for obj, gv := range ck.tracked {
					if gv.roots[ev.root] {
						stale[obj] = true
						killer[obj] = ev.name
					}
				}
			case gDef:
				delete(stale, ev.obj)
			case gUse:
				if stale[ev.obj] && !reported[ev.obj] {
					reported[ev.obj] = true
					via := killer[ev.obj]
					if via == "" {
						via = "a mutates-structure call"
					}
					pass.Report(ev.pos,
						"stale %s: %s crosses %s without re-derivation — the mutation may have invalidated it",
						ck.tracked[ev.obj].kinds, ev.obj.Name(), via)
				}
			}
		}
	}
}

// trackDef classifies one assignment's value; tracked objects accumulate
// kinds and roots. Returns whether anything grew.
func (ck *genstaleCtx) trackDef(lhs ast.Expr, rhs ast.Expr) bool {
	obj := lhsObject(ck.info, lhs)
	if obj == nil {
		return false
	}
	kind, root := ck.valueKind(rhs)
	if kind == "" || root == nil {
		return false
	}
	gv := ck.tracked[obj]
	if gv == nil {
		gv = &genValue{kinds: kind, roots: map[types.Object]bool{}}
		ck.tracked[obj] = gv
	}
	if gv.roots[root] {
		return false
	}
	gv.roots[root] = true
	return true
}

// valueKind classifies an expression: an unstable borrowed view, a node
// handle, or a generation value — each with the structure root it derives
// from. Slot-class values are deliberately untracked (slot stability).
func (ck *genstaleCtx) valueKind(e ast.Expr) (string, types.Object) {
	e = ast.Unparen(e)
	if call, ok := e.(*ast.CallExpr); ok {
		if callee := ck.tr.calleeNode(call); callee != nil {
			recv := callRecvRoot(ck.info, call)
			if bi := ck.borrows[callee]; bi != nil && bi.BorrowAnnotated && !ck.hc.StableViews[callee.Name] {
				return "view", recv
			}
			if hi := ck.facts[callee]; hi != nil && hi.Ret&HandleNode != 0 {
				return "node handle", recv
			}
		}
	}
	c := ck.tr.exprClass(e)
	if c&HandleGen != 0 {
		return "generation value", ck.genRoot(e)
	}
	if c&HandleNode != 0 {
		return "node handle", ck.rootOf(e)
	}
	return "", nil
}

// genRoot resolves the structure owning a generation read: the base of
// the gen field selector (nd for nd.gen and nd.gen.Load()).
func (ck *genstaleCtx) genRoot(e ast.Expr) types.Object {
	e = ast.Unparen(e)
	if call, ok := e.(*ast.CallExpr); ok {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			return rootObj(ck.info, sel.X)
		}
		return nil
	}
	if sel, ok := e.(*ast.SelectorExpr); ok {
		return rootObj(ck.info, sel.X)
	}
	return ck.rootOf(e)
}

// rootOf resolves the structure root a handle expression derives from:
// the receiver of a producing call, the base of a field/run read, or the
// already-tracked roots of a copied local.
func (ck *genstaleCtx) rootOf(e ast.Expr) types.Object {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.CallExpr:
		return callRecvRoot(ck.info, x)
	case *ast.Ident:
		// Copies inherit via trackDef's fixed point; here just resolve
		// a direct alias to its (single) existing root.
		if o := lhsObject(ck.info, x); o != nil {
			if gv := ck.tracked[o]; gv != nil {
				for r := range gv.roots {
					return r
				}
			}
		}
		return nil
	case *ast.SelectorExpr, *ast.IndexExpr:
		return rootObj(ck.info, e)
	case *ast.BinaryExpr:
		if r := ck.rootOf(x.X); r != nil {
			return r
		}
		return ck.rootOf(x.Y)
	}
	return nil
}

// callRecvRoot resolves the root object of a method call's receiver.
func callRecvRoot(info *types.Info, call *ast.CallExpr) types.Object {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	return rootObj(info, sel.X)
}

// emit appends the node's events in execution order: uses and kills inside
// the right-hand sides first, then definitions. Compound statements never
// reach here — cfg blocks carry leaf statements and branch conditions.
func (ck *genstaleCtx) emit(n ast.Node, out *[]gev) {
	if n == nil {
		return
	}
	switch x := n.(type) {
	case *ast.FuncLit, *ast.DeferStmt:
		return
	case *ast.AssignStmt:
		for _, r := range x.Rhs {
			ck.emit(r, out)
		}
		for i, l := range x.Lhs {
			if obj := lhsObject(ck.info, l); obj != nil {
				// A re-definition only refreshes the object when the new
				// value is itself derived fresh (tracked def) or plain;
				// either way the old value is gone.
				if ck.tracked[obj] != nil && (len(x.Lhs) == len(x.Rhs) || i == 0) {
					*out = append(*out, gev{kind: gDef, obj: obj, pos: l.Pos()})
				}
				continue
			}
			ck.emit(l, out) // t.ents[n] = v: the subscript uses n
		}
		return
	case *ast.ValueSpec:
		for _, v := range x.Values {
			ck.emit(v, out)
		}
		for _, name := range x.Names {
			if obj := ck.info.Defs[name]; obj != nil && ck.tracked[obj] != nil {
				*out = append(*out, gev{kind: gDef, obj: obj, pos: name.Pos()})
			}
		}
		return
	case *ast.CallExpr:
		ck.emit(x.Fun, out)
		for _, a := range x.Args {
			ck.emit(a, out)
		}
		if callee := ck.tr.calleeNode(x); callee != nil {
			if hi := ck.facts[callee]; hi != nil && hi.Mutates {
				if root := callRecvRoot(ck.info, x); root != nil {
					*out = append(*out, gev{kind: gKill, root: root, name: callee.Name, pos: x.Pos()})
				}
			}
		}
		return
	case *ast.SelectorExpr:
		ck.emit(x.X, out) // the selected field is not a local use
		return
	case *ast.Ident:
		if o := ck.info.Uses[x]; o != nil && ck.tracked[o] != nil {
			*out = append(*out, gev{kind: gUse, obj: o, pos: x.Pos()})
		}
		return
	}
	// Generic: recurse one level into the node's children.
	ast.Inspect(n, func(m ast.Node) bool {
		if m == n {
			return true
		}
		if m != nil {
			ck.emit(m, out)
		}
		return false
	})
}
