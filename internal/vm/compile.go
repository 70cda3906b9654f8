package vm

import (
	"fmt"

	"eol/internal/interp"
	"eol/internal/lang/ast"
	"eol/internal/lang/sem"
	"eol/internal/lang/token"
)

// Compile lowers a checked program to bytecode. Lowering is
// deterministic and side-effect free; programOf caches the result on
// the *interp.Compiled so it runs once per program.
//
// Code layout: the global declarations come first, followed by
// [opReset, opCallMain, opHalt], followed by each function body (in
// source order, duplicate declarations skipped) terminated by opEndFn.
// Calls name functions by index into Program.fns; the entry pc is read
// from the table at call time, so no fixups are needed for forward
// references.
func Compile(c *interp.Compiled) *Program {
	cp := &compiler{
		c:        c,
		p:        &Program{c: c},
		constIdx: make(map[int64]int32),
		strIdx:   make(map[string]int32),
		symIdx:   make(map[*sem.Symbol]int32),
		stmtIdx:  make(map[int]int32),
		fnIdx:    make(map[string]int32),
	}
	p := cp.p

	// Function index pre-pass, so call sites can reference any function
	// before its body is compiled.
	for _, f := range c.Prog.Funcs {
		fi := c.Info.Funcs[f.Name.Name]
		if fi.Decl != f {
			continue // duplicate declaration: only the canonical body runs
		}
		cp.fnIdx[f.Name.Name] = int32(len(p.fns))
		p.fns = append(p.fns, fnMeta{
			fi:     fi,
			name:   f.Name.Name,
			nslots: int32(fi.NumSlots()),
			nargs:  int32(len(fi.Params)),
			params: fi.Params,
		})
	}

	for _, d := range c.Prog.Globals {
		cp.stmt(d)
	}
	// Reset the region parent so main's top-level statements become
	// roots, exactly like run()'s curEntry reset between globals and the
	// main call. The main call site reports position 1:1 (ErrFrames at
	// depth bound 1), and records no return-value use: run() discards
	// main's return value without an enclosing expression.
	cp.emit(instr{op: opReset})
	cp.emit(instr{op: opCallMain, a: cp.fnIdx["main"], pos: token.Pos{Line: 1, Col: 1}})
	cp.emit(instr{op: opHalt})

	for _, f := range c.Prog.Funcs {
		fi := c.Info.Funcs[f.Name.Name]
		if fi.Decl != f {
			continue
		}
		p.fns[cp.fnIdx[f.Name.Name]].entry = cp.pc()
		cp.block(f.Body)
		cp.emit(instr{op: opEndFn})
	}
	return p
}

type compiler struct {
	c        *interp.Compiled
	p        *Program
	constIdx map[int64]int32
	strIdx   map[string]int32
	symIdx   map[*sem.Symbol]int32
	stmtIdx  map[int]int32 // statement ID -> stmtMeta index
	fnIdx    map[string]int32
	loops    []loopFrame
}

// loopFrame collects the forward jumps of break/continue statements in
// the innermost enclosing loop. While-loops know their continue target
// up front (the loop top); for-loops patch continues to the Post
// statement, which is emitted after the body.
type loopFrame struct {
	breakPs []int32
	contPs  []int32
	contPC  int32 // continue target when already known, else -1
}

func (cp *compiler) emit(in instr) int32 {
	cp.p.code = append(cp.p.code, in)
	return int32(len(cp.p.code) - 1)
}

func (cp *compiler) pc() int32 { return int32(len(cp.p.code)) }

func (cp *compiler) patch(at, target int32) { cp.p.code[at].a = target }

func (cp *compiler) constant(v int64) int32 {
	if i, ok := cp.constIdx[v]; ok {
		return i
	}
	i := int32(len(cp.p.consts))
	cp.p.consts = append(cp.p.consts, v)
	cp.constIdx[v] = i
	return i
}

func (cp *compiler) str(s string) int32 {
	if i, ok := cp.strIdx[s]; ok {
		return i
	}
	i := int32(len(cp.p.strs))
	cp.p.strs = append(cp.p.strs, s)
	cp.strIdx[s] = i
	return i
}

func (cp *compiler) sym(s *sem.Symbol) int32 {
	if i, ok := cp.symIdx[s]; ok {
		return i
	}
	i := int32(len(cp.p.syms))
	cp.p.syms = append(cp.p.syms, s)
	cp.symIdx[s] = i
	return i
}

// meta interns the side-table entry for one numbered statement,
// resolving at compile time what the tree-walker looks up per executed
// instance: the CFG node (control-stack pop test), its immediate
// post-dominator (control-stack push), and the static use-count bound.
func (cp *compiler) meta(s ast.Numbered) int32 {
	id := s.ID()
	if i, ok := cp.stmtIdx[id]; ok {
		return i
	}
	node := cp.c.CFG.NodeOf(id)
	m := stmtMeta{
		id:   int32(id),
		pos:  s.Pos(),
		node: node,
		stmt: s,
	}
	if node != nil {
		m.ipdom = node.IPDom
	}
	i := int32(len(cp.p.stmts))
	cp.p.stmts = append(cp.p.stmts, m)
	cp.stmtIdx[id] = i
	return i
}

func (cp *compiler) begin(s ast.Numbered) { cp.emit(instr{op: opBegin, a: cp.meta(s)}) }

func (cp *compiler) block(b *ast.BlockStmt) {
	for _, s := range b.Stmts {
		cp.stmt(s)
	}
}

func (cp *compiler) stmt(s ast.Stmt) {
	switch n := s.(type) {
	case *ast.BlockStmt:
		cp.block(n)

	case *ast.VarDeclStmt:
		cp.begin(n)
		sym := cp.c.Info.Uses[n.Name]
		if sym.IsArray {
			cp.emit(instr{op: opDeclA, a: cp.sym(sym)})
			return
		}
		if n.Init != nil {
			cp.expr(n.Init)
		} else {
			cp.emit(instr{op: opConst, a: cp.constant(0)})
		}
		cp.emit(instr{op: opDeclS, a: cp.sym(sym)})

	case *ast.AssignStmt:
		cp.begin(n)
		cp.expr(n.RHS)
		op := n.Op.AssignOp()
		switch lhs := n.LHS.(type) {
		case *ast.Ident:
			sym := cp.c.Info.Uses[lhs]
			if op == token.ILLEGAL {
				cp.emit(instr{op: opStoreS, a: cp.sym(sym)})
			} else {
				cp.emit(instr{op: opStoreSOp, a: cp.sym(sym), b: int32(op), pos: n.Pos()})
			}
		case *ast.IndexExpr:
			sym := cp.c.Info.Uses[lhs.X]
			cp.expr(lhs.Index)
			// n.Pos() == lhs.Pos(), so one position serves both the bounds
			// check and a compound operator's div/shift errors.
			if op == token.ILLEGAL {
				cp.emit(instr{op: opStoreA, a: cp.sym(sym), pos: lhs.Pos()})
			} else {
				cp.emit(instr{op: opStoreAOp, a: cp.sym(sym), b: int32(op), pos: lhs.Pos()})
			}
		default:
			panic(fmt.Sprintf("vm: unexpected assignment target %T", n.LHS))
		}

	case *ast.IfStmt:
		cp.emit(instr{op: opCheck})
		cp.begin(n)
		cp.expr(n.Cond)
		pred := cp.emit(instr{op: opPred, a: -1})
		cp.block(n.Then)
		if n.Else != nil {
			jend := cp.emit(instr{op: opJump, a: -1})
			cp.patch(pred, cp.pc())
			cp.stmt(n.Else) // else-if re-dispatches: gets its own opCheck
			cp.patch(jend, cp.pc())
		} else {
			cp.patch(pred, cp.pc())
		}

	case *ast.WhileStmt:
		top := cp.pc()
		cp.emit(instr{op: opCheck})
		cp.begin(n)
		cp.expr(n.Cond)
		pred := cp.emit(instr{op: opPred, a: -1})
		cp.loops = append(cp.loops, loopFrame{contPC: top})
		cp.block(n.Body)
		lf := cp.loops[len(cp.loops)-1]
		cp.loops = cp.loops[:len(cp.loops)-1]
		cp.emit(instr{op: opJump, a: top})
		exit := cp.pc()
		cp.patch(pred, exit)
		for _, at := range lf.breakPs {
			cp.patch(at, exit)
		}

	case *ast.ForStmt:
		if n.Init != nil {
			cp.stmt(n.Init)
		}
		top := cp.pc()
		cp.emit(instr{op: opCheck})
		cp.begin(n)
		pred := int32(-1)
		if n.Cond != nil {
			cp.expr(n.Cond)
			pred = cp.emit(instr{op: opPred, a: -1})
		} else {
			cp.emit(instr{op: opPredTrue})
		}
		cp.loops = append(cp.loops, loopFrame{contPC: -1})
		cp.block(n.Body)
		lf := cp.loops[len(cp.loops)-1]
		cp.loops = cp.loops[:len(cp.loops)-1]
		post := cp.pc()
		if n.Post != nil {
			cp.stmt(n.Post)
		}
		cp.emit(instr{op: opJump, a: top})
		exit := cp.pc()
		if pred >= 0 {
			cp.patch(pred, exit)
		}
		for _, at := range lf.contPs {
			cp.patch(at, post)
		}
		for _, at := range lf.breakPs {
			cp.patch(at, exit)
		}

	case *ast.BreakStmt:
		cp.begin(n)
		at := cp.emit(instr{op: opJump, a: -1})
		lf := &cp.loops[len(cp.loops)-1]
		lf.breakPs = append(lf.breakPs, at)

	case *ast.ContinueStmt:
		cp.begin(n)
		lf := &cp.loops[len(cp.loops)-1]
		if lf.contPC >= 0 {
			cp.emit(instr{op: opJump, a: lf.contPC})
		} else {
			at := cp.emit(instr{op: opJump, a: -1})
			lf.contPs = append(lf.contPs, at)
		}

	case *ast.ReturnStmt:
		cp.begin(n)
		if n.Value != nil {
			cp.expr(n.Value)
			cp.emit(instr{op: opRetV})
		} else {
			cp.emit(instr{op: opRet})
		}

	case *ast.ExprStmt:
		cp.begin(n)
		cp.expr(n.X)
		cp.emit(instr{op: opPop})

	case *ast.PrintStmt:
		cp.begin(n)
		arg := int32(0)
		for _, a := range n.Args {
			if lit, ok := a.(*ast.StringLit); ok {
				cp.emit(instr{op: opPrintS, a: cp.str(lit.Value)})
				continue
			}
			cp.expr(a)
			cp.emit(instr{op: opPrintV, a: arg})
			arg++
		}
		cp.emit(instr{op: opPrintNL})

	default:
		panic(fmt.Sprintf("vm: unexpected statement %T", s))
	}
}

func (cp *compiler) expr(e ast.Expr) {
	switch x := e.(type) {
	case *ast.IntLit:
		cp.emit(instr{op: opConst, a: cp.constant(x.Value)})
	case *ast.StringLit:
		cp.emit(instr{op: opConst, a: cp.constant(0)}) // only legal inside print
	case *ast.Ident:
		cp.emit(instr{op: opLoadS, a: cp.sym(cp.c.Info.Uses[x])})
	case *ast.IndexExpr:
		cp.expr(x.Index)
		cp.emit(instr{op: opLoadA, a: cp.sym(cp.c.Info.Uses[x.X]), pos: x.Pos()})
	case *ast.UnaryExpr:
		cp.expr(x.X)
		switch x.Op {
		case token.SUB:
			cp.emit(instr{op: opNeg})
		case token.NOT:
			cp.emit(instr{op: opNot})
		case token.TILD:
			cp.emit(instr{op: opBnot})
		default:
			panic(fmt.Sprintf("vm: unexpected unary op %v", x.Op))
		}
	case *ast.BinaryExpr:
		// Short-circuit lowering: the unevaluated side is jumped over, so
		// it contributes no dynamic uses, and the result is normalized to
		// 0/1 on both paths exactly like the tree-walker's b2i.
		switch x.Op {
		case token.LAND:
			cp.expr(x.X)
			jy := cp.emit(instr{op: opJnz, a: -1})
			cp.emit(instr{op: opConst, a: cp.constant(0)})
			jend := cp.emit(instr{op: opJump, a: -1})
			cp.patch(jy, cp.pc())
			cp.expr(x.Y)
			cp.emit(instr{op: opBool})
			cp.patch(jend, cp.pc())
			return
		case token.LOR:
			cp.expr(x.X)
			jy := cp.emit(instr{op: opJz, a: -1})
			cp.emit(instr{op: opConst, a: cp.constant(1)})
			jend := cp.emit(instr{op: opJump, a: -1})
			cp.patch(jy, cp.pc())
			cp.expr(x.Y)
			cp.emit(instr{op: opBool})
			cp.patch(jend, cp.pc())
			return
		}
		cp.expr(x.X)
		cp.expr(x.Y)
		// b (the statement ID reported by div/shift errors) is 0 in
		// expression context; compound assignments use opStore*Op instead.
		cp.emit(instr{op: binOpcode(x.Op), pos: x.Pos()})
	case *ast.CallExpr:
		cp.call(x)
	default:
		panic(fmt.Sprintf("vm: unexpected expression %T", e))
	}
}

func (cp *compiler) call(x *ast.CallExpr) {
	name := x.Fun.Name
	if _, ok := sem.Builtins[name]; ok {
		switch name {
		case "read":
			cp.emit(instr{op: opRead})
		case "peek":
			cp.emit(instr{op: opPeek})
		case "eof":
			cp.emit(instr{op: opEof})
		case "len":
			// Static: the array's declared size, no runtime use recorded.
			sym := cp.c.Info.Uses[x.Args[0].(*ast.Ident)]
			cp.emit(instr{op: opConst, a: cp.constant(sym.Size)})
		case "abs":
			cp.expr(x.Args[0])
			cp.emit(instr{op: opAbs})
		case "min":
			cp.expr(x.Args[0])
			cp.expr(x.Args[1])
			cp.emit(instr{op: opMin})
		case "max":
			cp.expr(x.Args[0])
			cp.expr(x.Args[1])
			cp.emit(instr{op: opMax})
		case "assert":
			cp.expr(x.Args[0])
			cp.emit(instr{op: opAssert, pos: x.Pos()})
		default:
			panic(fmt.Sprintf("vm: unexpected builtin %s", name))
		}
		return
	}
	for _, a := range x.Args {
		cp.expr(a)
	}
	cp.emit(instr{op: opCall, a: cp.fnIdx[name], pos: x.Pos()})
}

// binOpcode maps a strict (non-short-circuit) binary operator token to
// its opcode.
func binOpcode(op token.Kind) opcode {
	switch op {
	case token.ADD:
		return opAdd
	case token.SUB:
		return opSub
	case token.MUL:
		return opMul
	case token.QUO:
		return opQuo
	case token.REM:
		return opRem
	case token.AND:
		return opAnd
	case token.OR:
		return opOr
	case token.XOR:
		return opXor
	case token.SHL:
		return opShl
	case token.SHR:
		return opShr
	case token.EQL:
		return opEql
	case token.NEQ:
		return opNeq
	case token.LSS:
		return opLss
	case token.LEQ:
		return opLeq
	case token.GTR:
		return opGtr
	case token.GEQ:
		return opGeq
	}
	panic(fmt.Sprintf("vm: unexpected binary op %v", op))
}
