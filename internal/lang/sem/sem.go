// Package sem implements the semantic pass of the MiniC front end:
// name resolution, static checks, statement numbering, and per-statement
// def/use extraction.
//
// Statement numbering assigns S1..Sn in source order (globals first, then
// function bodies), matching the notation of the PLDI 2007 paper. Def/use
// sets are expressed over abstract locations: one per scalar symbol and
// one per array object. The whole-array granularity of the *static* view
// is deliberate — it reproduces the conservatism that makes relevant
// slicing introduce false potential dependences (Fig. 1 of the paper).
package sem

import (
	"fmt"

	"eol/internal/lang/ast"
	"eol/internal/lang/token"
)

// SymKind classifies variable symbols.
type SymKind int

// Symbol kinds.
const (
	Global SymKind = iota
	Local
	Param
)

// String names the symbol kind.
func (k SymKind) String() string {
	switch k {
	case Global:
		return "global"
	case Local:
		return "local"
	case Param:
		return "param"
	}
	return "unknown"
}

// Symbol is a resolved variable. Each symbol names one abstract location:
// the scalar cell, or the entire array object.
type Symbol struct {
	ID      int // unique, dense, 0-based
	Name    string
	Kind    SymKind
	IsArray bool
	Size    int64     // element count for arrays
	Func    *FuncInfo // enclosing function; nil for globals
	DeclPos token.Pos

	// Slot is the symbol's dense storage index: among the globals for
	// globals, among the function's params+locals otherwise. The
	// interpreter uses slots for O(1) slice-based cell access.
	Slot int
}

// String renders the symbol for diagnostics.
func (s *Symbol) String() string {
	if s.Func != nil {
		return s.Func.Name + "." + s.Name
	}
	return s.Name
}

// FuncInfo is the semantic record of a function.
type FuncInfo struct {
	Name    string
	Decl    *ast.FuncDecl
	Params  []*Symbol
	Locals  []*Symbol // includes params
	StmtIDs []int     // IDs of all numbered statements in the body, source order
}

// NumSlots returns the function's local slot count (params + locals).
func (f *FuncInfo) NumSlots() int { return len(f.Locals) }

// Builtin names recognized by the checker and the interpreter.
var Builtins = map[string]struct {
	MinArgs, MaxArgs int
}{
	"read":   {0, 0},
	"peek":   {0, 0},
	"eof":    {0, 0},
	"len":    {1, 1},
	"abs":    {1, 1},
	"min":    {2, 2},
	"max":    {2, 2},
	"assert": {1, 1},
}

// Error is a semantic error with position information.
type Error struct {
	Pos token.Pos
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// ErrorList is a list of semantic errors; it implements error.
type ErrorList []*Error

// Error returns the first error plus a count of the rest.
func (l ErrorList) Error() string {
	switch len(l) {
	case 0:
		return "no errors"
	case 1:
		return l[0].Error()
	}
	return fmt.Sprintf("%s (and %d more errors)", l[0], len(l)-1)
}

// Info is the result of the semantic pass.
type Info struct {
	Prog    *ast.Program
	Symbols []*Symbol            // by symbol ID
	Funcs   map[string]*FuncInfo // by name
	Uses    map[*ast.Ident]*Symbol

	Stmts     []ast.Numbered       // by statement ID - 1
	StmtFunc  map[int]*FuncInfo    // statement ID -> enclosing function (nil for globals)
	StmtDefs  map[int][]*Symbol    // statement ID -> locations (possibly) defined directly
	StmtUses  map[int][]*Symbol    // statement ID -> locations used directly
	StmtCalls map[int][]string     // statement ID -> user functions called (incl. in exprs)
	Parent    map[int]ast.Stmt     // statement ID -> syntactic parent statement (block-transparent)
	LoopOf    map[int]ast.Numbered // break/continue stmt ID -> enclosing loop

	// NumGlobalSlots is the number of global storage slots.
	NumGlobalSlots int
}

// Stmt returns the statement with the given 1-based ID, or nil.
func (in *Info) Stmt(id int) ast.Numbered {
	if id < 1 || id > len(in.Stmts) {
		return nil
	}
	return in.Stmts[id-1]
}

// NumStmts returns the number of numbered statements.
func (in *Info) NumStmts() int { return len(in.Stmts) }

// SymbolByName finds a symbol by its qualified name as produced by
// Symbol.String ("x" for globals, "f.x" for locals). It returns nil if no
// such symbol exists. Intended for tests and tooling.
func (in *Info) SymbolByName(name string) *Symbol {
	for _, s := range in.Symbols {
		if s.String() == name {
			return s
		}
	}
	return nil
}

// Analyze runs the semantic pass over prog. It returns the Info and any
// semantic errors; the Info is usable (for diagnostics) even on error.
func Analyze(prog *ast.Program) (*Info, error) {
	c := &checker{
		info: &Info{
			Prog:      prog,
			Funcs:     map[string]*FuncInfo{},
			Uses:      map[*ast.Ident]*Symbol{},
			StmtFunc:  map[int]*FuncInfo{},
			StmtDefs:  map[int][]*Symbol{},
			StmtUses:  map[int][]*Symbol{},
			StmtCalls: map[int][]string{},
			Parent:    map[int]ast.Stmt{},
			LoopOf:    map[int]ast.Numbered{},
		},
	}
	c.run()
	if len(c.errs) > 0 {
		return c.info, c.errs
	}
	return c.info, nil
}

type scope struct {
	outer *scope
	names map[string]*Symbol
}

func (s *scope) lookup(name string) *Symbol {
	for sc := s; sc != nil; sc = sc.outer {
		if sym, ok := sc.names[name]; ok {
			return sym
		}
	}
	return nil
}

type checker struct {
	info    *Info
	errs    ErrorList
	globals *scope
	curFunc *FuncInfo
	cur     *scope
	loops   []ast.Numbered
}

func (c *checker) errorf(pos token.Pos, format string, args ...any) {
	c.errs = append(c.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (c *checker) newSymbol(name string, kind SymKind, pos token.Pos) *Symbol {
	sym := &Symbol{ID: len(c.info.Symbols), Name: name, Kind: kind, Func: c.curFunc, DeclPos: pos}
	c.info.Symbols = append(c.info.Symbols, sym)
	if c.curFunc != nil {
		sym.Slot = len(c.curFunc.Locals)
		c.curFunc.Locals = append(c.curFunc.Locals, sym)
	} else {
		sym.Slot = c.info.NumGlobalSlots
		c.info.NumGlobalSlots++
	}
	return sym
}

func (c *checker) declare(sc *scope, name string, kind SymKind, pos token.Pos) *Symbol {
	if name == "_" {
		// error-recovery placeholder from the parser
		return c.newSymbol(name, kind, pos)
	}
	if _, exists := sc.names[name]; exists {
		c.errorf(pos, "%s redeclared in this scope", name)
	}
	if _, isBuiltin := Builtins[name]; isBuiltin || name == "print" {
		c.errorf(pos, "cannot declare variable %s: name is reserved", name)
	}
	sym := c.newSymbol(name, kind, pos)
	sc.names[name] = sym
	return sym
}

func (c *checker) run() {
	prog := c.info.Prog
	c.globals = &scope{names: map[string]*Symbol{}}
	c.cur = c.globals

	// Pass 1: function signatures (so calls can be checked in any order).
	for _, f := range prog.Funcs {
		name := f.Name.Name
		if _, dup := c.info.Funcs[name]; dup {
			c.errorf(f.Pos(), "function %s redeclared", name)
			continue
		}
		if _, isBuiltin := Builtins[name]; isBuiltin || name == "print" {
			c.errorf(f.Pos(), "cannot declare function %s: name is reserved", name)
		}
		c.info.Funcs[name] = &FuncInfo{Name: name, Decl: f}
	}
	if main, ok := c.info.Funcs["main"]; !ok {
		c.errorf(token.Pos{Line: 1, Col: 1}, "program has no main function")
	} else if len(main.Decl.Params) != 0 {
		c.errorf(main.Decl.Pos(), "main must take no parameters")
	}

	// Pass 2: number statements and resolve, globals first then functions
	// in source order.
	for _, g := range prog.Globals {
		c.numberStmt(g, nil)
		c.checkVarDecl(g, c.globals, Global)
	}
	for _, f := range prog.Funcs {
		fi := c.info.Funcs[f.Name.Name]
		if fi == nil || fi.Decl != f {
			continue // duplicate declaration; skip body
		}
		c.curFunc = fi
		fnScope := &scope{outer: c.globals, names: map[string]*Symbol{}}
		for _, pIdent := range f.Params {
			sym := c.declare(fnScope, pIdent.Name, Param, pIdent.Pos())
			fi.Params = append(fi.Params, sym)
			c.info.Uses[pIdent] = sym
		}
		c.cur = fnScope
		c.checkBlock(f.Body, nil)
		c.curFunc = nil
		c.cur = c.globals
	}
}

// numberStmt assigns the next statement ID to s and records bookkeeping.
func (c *checker) numberStmt(s ast.Numbered, parent ast.Stmt) {
	ast.SetID(s, len(c.info.Stmts)+1)
	c.info.Stmts = append(c.info.Stmts, s)
	id := s.ID()
	c.info.StmtFunc[id] = c.curFunc
	if c.curFunc != nil {
		c.curFunc.StmtIDs = append(c.curFunc.StmtIDs, id)
	}
	if parent != nil {
		c.info.Parent[id] = parent
	}
}

func (c *checker) checkBlock(b *ast.BlockStmt, parent ast.Stmt) {
	inner := &scope{outer: c.cur, names: map[string]*Symbol{}}
	prev := c.cur
	c.cur = inner
	for _, s := range b.Stmts {
		c.checkStmt(s, parent)
	}
	c.cur = prev
}

func (c *checker) checkStmt(s ast.Stmt, parent ast.Stmt) {
	switch n := s.(type) {
	case *ast.BlockStmt:
		c.checkBlock(n, parent)
	case *ast.VarDeclStmt:
		c.numberStmt(n, parent)
		c.checkVarDecl(n, c.cur, Local)
	case *ast.AssignStmt:
		c.numberStmt(n, parent)
		c.checkAssign(n)
	case *ast.IfStmt:
		c.numberStmt(n, parent)
		c.useExpr(n.Cond, n.ID())
		c.checkBlock(n.Then, n)
		if n.Else != nil {
			c.checkStmt(n.Else, n)
		}
	case *ast.WhileStmt:
		c.numberStmt(n, parent)
		c.useExpr(n.Cond, n.ID())
		c.loops = append(c.loops, n)
		c.checkBlock(n.Body, n)
		c.loops = c.loops[:len(c.loops)-1]
	case *ast.ForStmt:
		// Init and Post get their own IDs; the ForStmt's own ID is the
		// predicate. Numbering order: Init, For (cond), body..., Post —
		// but IDs are source-order tokens, so number Init first, then the
		// for itself, then the body, then Post.
		forScope := &scope{outer: c.cur, names: map[string]*Symbol{}}
		prev := c.cur
		c.cur = forScope
		if n.Init != nil {
			c.checkStmt(n.Init, parent)
		}
		c.numberStmt(n, parent)
		if n.Cond != nil {
			c.useExpr(n.Cond, n.ID())
		}
		c.loops = append(c.loops, n)
		c.checkBlock(n.Body, n)
		c.loops = c.loops[:len(c.loops)-1]
		if n.Post != nil {
			c.checkStmt(n.Post, n)
		}
		c.cur = prev
	case *ast.BreakStmt:
		c.numberStmt(n, parent)
		if len(c.loops) == 0 {
			c.errorf(n.Pos(), "break outside loop")
		} else {
			c.info.LoopOf[n.ID()] = c.loops[len(c.loops)-1]
		}
	case *ast.ContinueStmt:
		c.numberStmt(n, parent)
		if len(c.loops) == 0 {
			c.errorf(n.Pos(), "continue outside loop")
		} else {
			c.info.LoopOf[n.ID()] = c.loops[len(c.loops)-1]
		}
	case *ast.ReturnStmt:
		c.numberStmt(n, parent)
		if n.Value != nil {
			c.useExpr(n.Value, n.ID())
		}
	case *ast.ExprStmt:
		c.numberStmt(n, parent)
		if call, ok := n.X.(*ast.CallExpr); ok {
			c.checkCall(call, n.ID())
		} else {
			c.useExpr(n.X, n.ID())
		}
	case *ast.PrintStmt:
		c.numberStmt(n, parent)
		for _, a := range n.Args {
			c.useExpr(a, n.ID())
		}
	default:
		c.errorf(s.Pos(), "unexpected statement %T", s)
	}
}

func (c *checker) checkVarDecl(d *ast.VarDeclStmt, sc *scope, kind SymKind) {
	id := d.ID()
	if d.Size != nil {
		sz, ok := constEval(d.Size)
		if !ok || sz <= 0 {
			c.errorf(d.Size.Pos(), "array size must be a positive constant expression")
			sz = 1
		}
		sym := c.declare(sc, d.Name.Name, kind, d.Pos())
		sym.IsArray = true
		sym.Size = sz
		c.info.Uses[d.Name] = sym
		c.info.StmtDefs[id] = append(c.info.StmtDefs[id], sym)
		return
	}
	if d.Init != nil {
		c.useExpr(d.Init, id) // resolve init before the name is visible
	}
	sym := c.declare(sc, d.Name.Name, kind, d.Pos())
	c.info.Uses[d.Name] = sym
	c.info.StmtDefs[id] = append(c.info.StmtDefs[id], sym)
}

func (c *checker) checkAssign(n *ast.AssignStmt) {
	id := n.ID()
	switch lhs := n.LHS.(type) {
	case *ast.Ident:
		sym := c.resolve(lhs)
		if sym != nil {
			if sym.IsArray {
				c.errorf(lhs.Pos(), "cannot assign to array %s without an index", sym.Name)
			}
			c.info.StmtDefs[id] = append(c.info.StmtDefs[id], sym)
			if n.Op != token.ASSIGN {
				c.addUse(id, sym)
			}
		}
	case *ast.IndexExpr:
		sym := c.resolve(lhs.X)
		if sym != nil {
			if !sym.IsArray {
				c.errorf(lhs.Pos(), "cannot index scalar %s", sym.Name)
			}
			c.info.StmtDefs[id] = append(c.info.StmtDefs[id], sym)
			if n.Op != token.ASSIGN {
				c.addUse(id, sym)
			}
		}
		c.useExpr(lhs.Index, id)
	default:
		c.errorf(n.LHS.Pos(), "invalid assignment target")
	}
	c.useExpr(n.RHS, id)
}

// resolve looks up an identifier, records the resolution, and reports
// undefined names.
func (c *checker) resolve(id *ast.Ident) *Symbol {
	if sym, done := c.info.Uses[id]; done {
		return sym
	}
	sym := c.cur.lookup(id.Name)
	if sym == nil {
		c.errorf(id.Pos(), "undefined: %s", id.Name)
		return nil
	}
	c.info.Uses[id] = sym
	return sym
}

func (c *checker) addUse(stmtID int, sym *Symbol) {
	for _, u := range c.info.StmtUses[stmtID] {
		if u == sym {
			return
		}
	}
	c.info.StmtUses[stmtID] = append(c.info.StmtUses[stmtID], sym)
}

func (c *checker) addCall(stmtID int, fn string) {
	for _, f := range c.info.StmtCalls[stmtID] {
		if f == fn {
			return
		}
	}
	c.info.StmtCalls[stmtID] = append(c.info.StmtCalls[stmtID], fn)
}

// useExpr resolves every identifier in e and accumulates uses for stmtID.
func (c *checker) useExpr(e ast.Expr, stmtID int) {
	switch x := e.(type) {
	case nil, *ast.IntLit, *ast.StringLit:
	case *ast.Ident:
		if sym := c.resolve(x); sym != nil {
			if sym.IsArray {
				c.errorf(x.Pos(), "array %s used without index (only len(%s) takes a bare array)", sym.Name, sym.Name)
			}
			c.addUse(stmtID, sym)
		}
	case *ast.IndexExpr:
		if sym := c.resolve(x.X); sym != nil {
			if !sym.IsArray {
				c.errorf(x.Pos(), "cannot index scalar %s", sym.Name)
			}
			c.addUse(stmtID, sym)
		}
		c.useExpr(x.Index, stmtID)
	case *ast.CallExpr:
		c.checkCall(x, stmtID)
	case *ast.UnaryExpr:
		c.useExpr(x.X, stmtID)
	case *ast.BinaryExpr:
		c.useExpr(x.X, stmtID)
		c.useExpr(x.Y, stmtID)
	default:
		c.errorf(e.Pos(), "unexpected expression %T", e)
	}
}

func (c *checker) checkCall(call *ast.CallExpr, stmtID int) {
	name := call.Fun.Name
	if name == "print" {
		c.errorf(call.Pos(), "print is a statement, not an expression")
		return
	}
	if b, ok := Builtins[name]; ok {
		if len(call.Args) < b.MinArgs || len(call.Args) > b.MaxArgs {
			c.errorf(call.Pos(), "%s expects %d..%d arguments, got %d", name, b.MinArgs, b.MaxArgs, len(call.Args))
		}
		if name == "len" {
			if len(call.Args) == 1 {
				if id, ok := call.Args[0].(*ast.Ident); ok {
					sym := c.resolve(id)
					if sym != nil && !sym.IsArray {
						c.errorf(id.Pos(), "len expects an array, got scalar %s", sym.Name)
					}
					// len is statically constant; no runtime use recorded.
					return
				}
				c.errorf(call.Args[0].Pos(), "len expects an array name")
			}
			return
		}
		for _, a := range call.Args {
			c.useExpr(a, stmtID)
		}
		return
	}
	fi, ok := c.info.Funcs[name]
	if !ok {
		c.errorf(call.Pos(), "undefined function: %s", name)
		// still resolve arguments for further checking
		for _, a := range call.Args {
			c.useExpr(a, stmtID)
		}
		return
	}
	if len(call.Args) != len(fi.Decl.Params) {
		c.errorf(call.Pos(), "%s expects %d arguments, got %d", name, len(fi.Decl.Params), len(call.Args))
	}
	c.addCall(stmtID, name)
	for _, a := range call.Args {
		c.useExpr(a, stmtID)
	}
}

// constEval evaluates a constant integer expression (literals, unary -/~,
// and arithmetic over constants).
func constEval(e ast.Expr) (int64, bool) {
	switch x := e.(type) {
	case *ast.IntLit:
		return x.Value, true
	case *ast.UnaryExpr:
		v, ok := constEval(x.X)
		if !ok {
			return 0, false
		}
		switch x.Op {
		case token.SUB:
			return -v, true
		case token.TILD:
			return ^v, true
		}
	case *ast.BinaryExpr:
		a, ok1 := constEval(x.X)
		b, ok2 := constEval(x.Y)
		if !ok1 || !ok2 {
			return 0, false
		}
		switch x.Op {
		case token.ADD:
			return a + b, true
		case token.SUB:
			return a - b, true
		case token.MUL:
			return a * b, true
		case token.QUO:
			if b != 0 {
				return a / b, true
			}
		case token.SHL:
			if b >= 0 && b < 64 {
				return a << uint(b), true
			}
		}
	}
	return 0, false
}
