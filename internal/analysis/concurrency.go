package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// This file computes the per-function concurrency facts behind ordlint's
// happens-before checks (chanprotocol, wgbalance, sharedwrite): channel
// operations (make/send/recv/close/range, with their select-arm escapes),
// sync.WaitGroup Add/Done/Wait deltas, and sync/atomic publish/consume
// sites. Combined with the call graph's go-edges they describe the
// module's concurrency protocols — which goroutine closes which channel,
// which Wait joins which Done — precisely enough for the checks to verify
// counterpart reachability statically. The atomic sites are reported by
// `ordlint -stats`.
//
// Channel, WaitGroup and atomic operands are abstracted to a *class*: the
// terminal field or variable name of the operand chain ("out" for s.out,
// shards[i].out and sh.out alike; "done" for a local done channel). The
// abstraction is deliberately name-based — the protocols this module (and
// the planned shard fan-out) use wire one producer struct field to one
// consumer variable, so the terminal name is exactly the protocol label.
// Operands whose chain bottoms out in a call ("<-ctx.Done()") get class ""
// and are exempt from counterpart matching.

// ChanOpKind classifies one channel operation.
type ChanOpKind int

const (
	ChanMake ChanOpKind = iota
	ChanSend
	ChanRecv
	ChanClose
	ChanRange
)

func (k ChanOpKind) String() string {
	switch k {
	case ChanMake:
		return "make"
	case ChanSend:
		return "send"
	case ChanRecv:
		return "recv"
	case ChanClose:
		return "close"
	case ChanRange:
		return "range"
	}
	return "?"
}

// ChanOp is one channel operation in a function body (nested function
// literals are separate graph nodes and carry their own ops).
type ChanOp struct {
	Kind ChanOpKind
	// Class is the terminal name of the channel chain ("" when the chain
	// bottoms out in a call or other unresolvable expression).
	Class string
	// Root is the base object of the operand chain, when resolvable.
	Root types.Object
	// Buffered marks a make with a non-zero capacity argument.
	Buffered bool
	// Deferred marks an operation inside a defer statement: it runs at
	// function exit, not at its syntactic position.
	Deferred bool
	// Escapes lists, for a send/recv that is a select arm, the classes of
	// the *other* receive arms of the same select — the channels whose
	// close or send can unblock this operation.
	Escapes []string
	// NonBlocking marks a select arm whose select has a default clause.
	NonBlocking bool
	Pos         token.Pos
}

// WGOpKind classifies one sync.WaitGroup operation.
type WGOpKind int

const (
	WGAdd WGOpKind = iota
	WGDone
	WGWait
)

// WGOp is one WaitGroup operation.
type WGOp struct {
	Kind  WGOpKind
	Class string
	Root  types.Object
	// Delta is the Add argument when it is an integer constant;
	// DeltaKnown is false otherwise (Done is a known delta of -1).
	Delta      int
	DeltaKnown bool
	Deferred   bool
	Pos        token.Pos
}

// AtomicOpKind classifies one sync/atomic typed-value operation.
type AtomicOpKind int

const (
	AtomicStore AtomicOpKind = iota
	AtomicLoad
	AtomicSwap
	AtomicCAS
	AtomicOther // Add, And, Or, ... — arithmetic, not publication
)

// AtomicOp is one operation on a sync/atomic typed value
// (atomic.Pointer[T], atomic.Value, atomic.Int64, ...).
type AtomicOp struct {
	Kind  AtomicOpKind
	Class string
	Root  types.Object
	// Recv is the atomic type's name ("Pointer", "Value", "Int64").
	Recv string
	// Val is the published value expression (Store/Swap: first argument,
	// CompareAndSwap: the new value); nil for loads.
	Val      ast.Expr
	Deferred bool
	Pos      token.Pos
}

// ConcSummary gathers the direct concurrency facts of one function body.
type ConcSummary struct {
	Chans   []ChanOp
	WGs     []WGOp
	Atomics []AtomicOp
}

// Spawns returns n's go-edges: the goroutines this function starts.
func Spawns(n *FuncNode) []*CallEdge {
	var out []*CallEdge
	for _, e := range n.Out {
		if e.Kind == EdgeGo {
			out = append(out, e)
		}
	}
	return out
}

// ComputeConcFacts extracts the direct concurrency summary of every graph
// node. Transitive protocol facts (which channels a goroutine's whole call
// cone touches) are assembled on demand by the checks via ConcCone.
func ComputeConcFacts(g *CallGraph) map[*FuncNode]*ConcSummary {
	facts := make(map[*FuncNode]*ConcSummary, len(g.Nodes))
	for _, n := range g.Nodes {
		facts[n] = concSummaryOf(n)
	}
	return facts
}

// ConcCone collects the channel and WaitGroup operations performed by n and
// everything reachable from it through call and defer edges — the operations
// the activation itself executes. go-edges are excluded (a spawned
// goroutine's operations happen on its own schedule), and so are ref-edges
// and the dynamic/interface approximations: CHA's dynamic edges link every
// compatible address-taken function, which would smear unrelated channel
// protocols into one cone (a deferred cancel() would "reach" every func()
// worker in the module).
func ConcCone(n *FuncNode, facts map[*FuncNode]*ConcSummary) *ConcSummary {
	out := &ConcSummary{}
	for _, m := range reachableCalls(n) {
		if s := facts[m]; s != nil {
			out.Chans = append(out.Chans, s.Chans...)
			out.WGs = append(out.WGs, s.WGs...)
			out.Atomics = append(out.Atomics, s.Atomics...)
		}
	}
	return out
}

// chanClass abstracts a channel/WaitGroup/atomic operand chain to its
// terminal field or variable name: s.out → "out", shards[i].out → "out",
// done → "done". Chains bottoming out in a call yield "".
func chanClass(e ast.Expr) string {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x.Name
		case *ast.SelectorExpr:
			return x.Sel.Name
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

// selectArm describes one send/recv comm clause for escape wiring.
type selectArm struct {
	send bool
	chE  ast.Expr
	span [2]token.Pos // extent of the comm statement
}

// concSummaryOf walks one function body shallowly (nested literals are
// their own nodes) and records every channel, WaitGroup and atomic op with
// its defer/select context.
func concSummaryOf(n *FuncNode) *ConcSummary {
	s := &ConcSummary{}
	body := n.Body()
	if body == nil || n.Pkg.Info == nil {
		return s
	}
	info := n.Pkg.Info

	// Context pre-pass: defer extents, select arms, and range statements.
	var deferSpans [][2]token.Pos
	type selectInfo struct {
		arms       []selectArm
		hasDefault bool
	}
	var selects []selectInfo
	inspectShallow(body, func(nd ast.Node) bool {
		switch x := nd.(type) {
		case *ast.DeferStmt:
			deferSpans = append(deferSpans, [2]token.Pos{x.Pos(), x.End()})
		case *ast.SelectStmt:
			si := selectInfo{}
			for _, c := range x.Body.List {
				cc, ok := c.(*ast.CommClause)
				if !ok {
					continue
				}
				if cc.Comm == nil {
					si.hasDefault = true
					continue
				}
				span := [2]token.Pos{cc.Comm.Pos(), cc.Comm.End()}
				switch comm := cc.Comm.(type) {
				case *ast.SendStmt:
					si.arms = append(si.arms, selectArm{send: true, chE: comm.Chan, span: span})
				case *ast.ExprStmt:
					if u, ok := ast.Unparen(comm.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
						si.arms = append(si.arms, selectArm{chE: u.X, span: span})
					}
				case *ast.AssignStmt:
					if len(comm.Rhs) == 1 {
						if u, ok := ast.Unparen(comm.Rhs[0]).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
							si.arms = append(si.arms, selectArm{chE: u.X, span: span})
						}
					}
				}
			}
			selects = append(selects, si)
		}
		return true
	})
	deferred := func(pos token.Pos) bool {
		for _, sp := range deferSpans {
			if pos >= sp[0] && pos < sp[1] {
				return true
			}
		}
		return false
	}
	// armCtx resolves the select context of an op position: the escape
	// classes (other recv arms) and whether the select has a default.
	armCtx := func(pos token.Pos) (escapes []string, nonBlocking, inSelect bool) {
		for _, si := range selects {
			for i, arm := range si.arms {
				if pos >= arm.span[0] && pos < arm.span[1] {
					for j, other := range si.arms {
						if j != i && !other.send {
							if c := chanClass(other.chE); c != "" {
								escapes = append(escapes, c)
							}
						}
					}
					return escapes, si.hasDefault, true
				}
			}
		}
		return nil, false, false
	}

	chanOp := func(kind ChanOpKind, chE ast.Expr, pos token.Pos, buffered bool) {
		op := ChanOp{
			Kind:     kind,
			Class:    chanClass(chE),
			Root:     rootObj(info, chE),
			Buffered: buffered,
			Deferred: deferred(pos),
			Pos:      pos,
		}
		op.Escapes, op.NonBlocking, _ = armCtx(pos)
		s.Chans = append(s.Chans, op)
	}

	inspectShallow(body, func(nd ast.Node) bool {
		switch x := nd.(type) {
		case *ast.SendStmt:
			chanOp(ChanSend, x.Chan, x.Pos(), false)
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				chanOp(ChanRecv, x.X, x.Pos(), false)
			}
		case *ast.RangeStmt:
			if t := typeOf(info, x.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					chanOp(ChanRange, x.X, x.Pos(), false)
				}
			}
		case *ast.AssignStmt:
			// make(chan T, n) bound to a name: record the target's class.
			if len(x.Lhs) == len(x.Rhs) {
				for i, rhs := range x.Rhs {
					if buffered, ok := makeChan(info, rhs); ok {
						chanOp(ChanMake, x.Lhs[i], rhs.Pos(), buffered)
					}
				}
			}
		case *ast.KeyValueExpr:
			// Composite-literal field wiring: out: make(chan T, 64).
			if buffered, ok := makeChan(info, x.Value); ok {
				chanOp(ChanMake, x.Key, x.Value.Pos(), buffered)
			}
		case *ast.CallExpr:
			if b, ok := calleeObject(info, x).(*types.Builtin); ok {
				if b.Name() == "close" && len(x.Args) == 1 {
					chanOp(ChanClose, x.Args[0], x.Pos(), false)
				}
				return true
			}
			if name, recv, ok := syncMethodCall(info, x, "sync", "WaitGroup"); ok {
				op := WGOp{
					Class:    chanClass(recv),
					Root:     rootObj(info, recv),
					Deferred: deferred(x.Pos()),
					Pos:      x.Pos(),
				}
				switch name {
				case "Add":
					op.Kind = WGAdd
					if len(x.Args) == 1 {
						if tv, ok := info.Types[x.Args[0]]; ok && tv.Value != nil && tv.Value.Kind() == constant.Int {
							if v, exact := constant.Int64Val(tv.Value); exact {
								op.Delta, op.DeltaKnown = int(v), true
							}
						}
					}
				case "Done":
					op.Kind, op.Delta, op.DeltaKnown = WGDone, -1, true
				case "Wait":
					op.Kind = WGWait
				default:
					return true
				}
				s.WGs = append(s.WGs, op)
				return true
			}
			if name, recvType, recv, ok := atomicMethodCall(info, x); ok {
				op := AtomicOp{
					Class:    chanClass(recv),
					Root:     rootObj(info, recv),
					Recv:     recvType,
					Deferred: deferred(x.Pos()),
					Pos:      x.Pos(),
				}
				switch name {
				case "Store":
					op.Kind = AtomicStore
					if len(x.Args) == 1 {
						op.Val = x.Args[0]
					}
				case "Load":
					op.Kind = AtomicLoad
				case "Swap":
					op.Kind = AtomicSwap
					if len(x.Args) == 1 {
						op.Val = x.Args[0]
					}
				case "CompareAndSwap":
					op.Kind = AtomicCAS
					if len(x.Args) == 2 {
						op.Val = x.Args[1]
					}
				default:
					op.Kind = AtomicOther
				}
				s.Atomics = append(s.Atomics, op)
			}
		}
		return true
	})
	return s
}

// makeChan reports whether e is a make of a channel type and whether the
// capacity argument is present and non-zero.
func makeChan(info *types.Info, e ast.Expr) (buffered, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return false, false
	}
	b, isBuiltin := calleeObject(info, call).(*types.Builtin)
	if !isBuiltin || b.Name() != "make" || len(call.Args) == 0 {
		return false, false
	}
	t := typeOf(info, call)
	if t == nil {
		return false, false
	}
	if _, isChan := t.Underlying().(*types.Chan); !isChan {
		return false, false
	}
	if len(call.Args) >= 2 {
		if tv, found := info.Types[call.Args[1]]; found && tv.Value != nil {
			if v, exact := constant.Int64Val(tv.Value); exact && v == 0 {
				return false, true
			}
		}
		return true, true
	}
	return false, true
}

// syncMethodCall matches a method call on pkgPath.typeName receivers and
// returns the method name and the receiver expression.
func syncMethodCall(info *types.Info, call *ast.CallExpr, pkgPath, typeName string) (name string, recv ast.Expr, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", nil, false
	}
	f, isFunc := calleeObject(info, call).(*types.Func)
	if !isFunc || f.Pkg() == nil || f.Pkg().Path() != pkgPath {
		return "", nil, false
	}
	sig, _ := f.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return "", nil, false
	}
	t := sig.Recv().Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed || named.Obj().Name() != typeName {
		return "", nil, false
	}
	return f.Name(), sel.X, true
}

// atomicMethodCall matches a method call on any sync/atomic typed value and
// returns the method name, the receiver type's name and the receiver
// expression.
func atomicMethodCall(info *types.Info, call *ast.CallExpr) (name, recvType string, recv ast.Expr, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", nil, false
	}
	f, isFunc := calleeObject(info, call).(*types.Func)
	if !isFunc || f.Pkg() == nil || f.Pkg().Path() != "sync/atomic" {
		return "", "", nil, false
	}
	sig, _ := f.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return "", "", nil, false
	}
	t := sig.Recv().Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return "", "", nil, false
	}
	return f.Name(), named.Obj().Name(), sel.X, true
}

// atomicPointerElem returns the qualified element type name of an
// atomic.Pointer[T] receiver type ("" for non-generic atomics).
func atomicPointerElem(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Pointer" {
		return ""
	}
	args := named.TypeArgs()
	if args == nil || args.Len() != 1 {
		return ""
	}
	return namedQName(args.At(0))
}
