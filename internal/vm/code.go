// Package vm is the bytecode execution backend for MiniC: a compiler
// that lowers a checked program to a flat instruction stream plus a
// dispatch-loop virtual machine that executes it with inline tracing.
//
// The VM implements exactly the same observable semantics as the
// tree-walking reference interpreter (internal/interp), which remains
// the differential oracle: for any program, input and options the two
// backends produce byte-identical traces (entries, step numbering,
// defs/uses/predicates/outputs), rendered text, step counts,
// RuntimeError positions and budget/cancellation semantics. What the VM
// removes is the per-step interpretation overhead — AST type switches,
// the per-identifier symbol map lookups, and the per-statement CFG node
// lookups are all resolved at compile time into instruction operands
// and the side tables below. See docs/VM.md for the instruction set and
// the trace-emission contract.
//
// Checkpointed suffix replay works on VM state: a snapshot is just the
// pc, the frame stack and the call records — forking is "restore and
// jump". See checkpoint.go.
package vm

import (
	"eol/internal/cfg"
	"eol/internal/interp"
	"eol/internal/lang/ast"
	"eol/internal/lang/sem"
	"eol/internal/lang/token"
)

// opcode enumerates the VM instruction set. The machine is stack-based:
// expression operands live on a per-run operand stack, while variables
// live in slot-indexed copy-on-write activation frames (frame.go), which
// checkpoints share structurally.
type opcode uint8

const (
	// Statement framing.
	opBegin opcode = iota // a=stmt meta index: budget/ctx tick, occ, ctrl-pop, trace entry
	opCheck               // checkpoint poll point (precedes a predicate's opBegin)
	opReset               // curEntry = -1 (between globals and main)
	opHalt                // end of program

	// Operand stack.
	opConst // a=const pool index: push
	opPop   // drop top

	// Variable access.
	opLoadS  // a=sym index: push scalar value, record use
	opLoadA  // a=sym index: pop element index, push value, record use (pos=index expr)
	opDeclS  // a=sym index: pop value, perturb, store scalar, record def
	opDeclA  // a=sym index: allocate array, record def
	opStoreS // a=sym index: pop value, perturb, store scalar, record def
	opStoreSOp
	// opStoreSOp a=sym index, b=binary op kind: compound scalar assign
	opStoreA // a=sym index: pop index, pop value, bounds-check, store element
	opStoreAOp
	// opStoreAOp a=sym index, b=binary op kind: compound element assign

	// Control flow.
	opJump     // pc = a
	opJnz      // pop; pc = a when != 0 (short-circuit &&/||)
	opJz       // pop; pc = a when == 0
	opBool     // pop v; push v != 0 ? 1 : 0
	opPred     // pop cond; apply switch plan; record branch; push ctrl; pc = a when not taken
	opPredTrue // condition-less for: record taken=true (no switch consult); push ctrl

	// Calls and returns.
	opCall     // a=fn index: push activation, bind params, jump to body
	opCallMain // like opCall but no return-value use is recorded at the call site
	opRetV     // explicit "return e": pop value, set entry value, unwind
	opRet      // explicit "return;": unwind with value 0
	opEndFn    // fall off the end of a body: unwind with value 0, no return entry

	// Unary and binary operators. The b operand of the fallible ops
	// (div/rem/shift) is the statement ID for error reporting: non-zero
	// only in compound-assignment context, matching the tree-walker.
	opNeg
	opNot
	opBnot
	opAdd
	opSub
	opMul
	opQuo
	opRem
	opAnd
	opOr
	opXor
	opShl
	opShr
	opEql
	opNeq
	opLss
	opLeq
	opGtr
	opGeq

	// Output.
	opPrintS  // a=string pool index: write literal text
	opPrintV  // a=arg number: pop value, write %d, record output event
	opPrintNL // write '\n'

	// Builtins (len compiles to opConst: the size is static).
	opRead
	opPeek
	opEof
	opAbs
	opMin
	opMax
	opAssert // peek top; fail ErrAssert when 0 (value stays pushed)
)

// instr is one VM instruction. pos carries the source position used in
// RuntimeErrors raised by this instruction (byte-identical to the
// positions the tree-walker reports).
type instr struct {
	op   opcode
	a, b int32
	pos  token.Pos
}

// stmtMeta is the per-statement side table: everything opBegin and the
// predicate/store ops need that the tree-walker recomputes per step
// (CFG node lookups, statement ID, position) resolved once at compile
// time.
type stmtMeta struct {
	id    int32
	pos   token.Pos    // s.Pos(), for budget/ctx expiry reporting
	node  *cfg.Node    // CFG node; nil for global declarations
	ipdom *cfg.Node    // node.IPDom for predicates (control-stack push)
	stmt  ast.Numbered // source statement, for disassembly annotations
}

// fnMeta is the per-function side table.
type fnMeta struct {
	fi     *sem.FuncInfo
	name   string
	entry  int32 // pc of the first instruction of the body
	nslots int32
	nargs  int32
	params []*sem.Symbol
}

// Program is a compiled bytecode program. It is immutable after Compile
// and safe for concurrent runs; it is cached on the *interp.Compiled it
// was lowered from (see programOf), so each program is compiled once.
type Program struct {
	c      *interp.Compiled
	code   []instr
	stmts  []stmtMeta
	consts []int64
	strs   []string
	syms   []*sem.Symbol
	fns    []fnMeta
}

// NumInstrs returns the size of the instruction stream.
func (p *Program) NumInstrs() int { return len(p.code) }
