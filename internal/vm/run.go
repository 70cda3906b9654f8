package vm

import (
	"fmt"
	"strconv"
	"strings"

	"eol/internal/cfg"
	"eol/internal/interp"
	"eol/internal/lang/token"
	"eol/internal/trace"
)

// machine is one VM execution: the operand stack, the activation
// frames, the call records and the trace cursor. Its observable
// behavior — trace entries, outputs, rendered text, step counts,
// errors — is byte-identical to the tree-walker's; every case in exec
// mirrors a specific code path of interp.execStmt/evalExpr, and the
// differential suite in internal/proptest pins the equivalence.
type machine struct {
	p         *Program
	input     []int64
	inPos     int
	plan      *interp.SwitchPlan
	perturb   *interp.PerturbPlan
	maxFrames int
	meter     interp.StepMeter

	tr      *trace.Trace // nil in plain mode
	occ     []int
	frames  []*frame
	calls   []callRec
	nextAct int
	out     strings.Builder
	res     *interp.Result

	stack []int64
	sp    int

	// The statement instance currently executing: its trace index (-1
	// outside / in plain mode), a cached pointer to its entry (re-fetched
	// whenever the entries slice may have grown, i.e. after calls
	// return), and its side-table row.
	curEntry int
	curE     *trace.Entry
	curMeta  *stmtMeta

	cks     *Store // capture store; nil on plain and forked runs
	scratch [24]byte
}

// callRec is the VM's call-stack record: where to return, and the
// caller statement context to restore (the tree-walker keeps both in
// its Go stack).
type callRec struct {
	retpc      int32
	base       int32 // operand-stack position on entry (args popped)
	savedEntry int32 // caller's curEntry
	savedMeta  *stmtMeta
	recordRet  bool // record a RetvalSym use at the call site (false for main)
}

// vmAbort is the panic payload used to unwind on runtime errors.
type vmAbort struct{ err *interp.RuntimeError }

func (m *machine) fail(pos token.Pos, stmt int, err error) {
	panic(vmAbort{&interp.RuntimeError{Pos: pos, Stmt: stmt, Err: err}})
}

func (m *machine) push(v int64) {
	if m.sp == len(m.stack) {
		m.stack = append(m.stack, v)
	} else {
		m.stack[m.sp] = v
	}
	m.sp++
}

func (m *machine) pop() int64 {
	m.sp--
	return m.stack[m.sp]
}

// run executes a compiled program from the top under opts; it is the
// VM analogue of interp.Run and mirrors its setup exactly.
func run(c *interp.Compiled, opts interp.Options) *interp.Result {
	p := programOf(c)
	m := &machine{
		p:         p,
		input:     opts.Input,
		plan:      opts.Switch,
		perturb:   opts.Perturb,
		maxFrames: opts.MaxFrames,
		occ:       make([]int, c.Info.NumStmts()+1),
		res:       &interp.Result{},
		curEntry:  -1,
	}
	if opts.Ctx != nil {
		if err := opts.Ctx.Err(); err != nil {
			// Already expired: no partial output.
			m.res.Err = &interp.RuntimeError{Err: interp.CtxErr(err)}
			return m.res
		}
	}
	budget := opts.StepBudget
	if budget <= 0 {
		budget = interp.DefaultStepBudget
	}
	if m.maxFrames <= 0 {
		m.maxFrames = interp.DefaultMaxFrames
	}
	m.meter = interp.NewStepMeter(&m.res.Steps, budget, opts.Ctx, false)
	if opts.BuildTrace {
		m.tr = trace.New()
		m.res.Trace = m.tr
		// Only a VM store can capture here; a foreign (tree) store is
		// left untouched.
		if st, ok := opts.Checkpoints.(*Store); ok && st != nil {
			st.bind(m.tr)
			m.cks = st
		}
	}
	if opts.Rec.Enabled() {
		mode := "plain"
		if opts.BuildTrace {
			mode = "trace"
		}
		opts.Rec.Begin("interp_run", "mode", mode)
		defer func() { opts.Rec.End("interp_run", int64(m.res.Steps)) }()
	}

	// Frame 0: globals. Code starts at pc 0 with the global declarations
	// and calls main via opCallMain.
	m.frames = append(m.frames, newFrame(0, c.Info.NumGlobalSlots, -1))
	m.nextAct = 1
	m.execTrapped(0)
	if m.tr != nil {
		m.tr.Finish()
	}
	m.res.Rendered = m.out.String()
	return m.res
}

// runFrom forks a run from a VM checkpoint and executes only the
// suffix. The result is byte-identical — trace, outputs, rendered text,
// step count, error — to a full run with the same Options, provided c
// is the program the checkpoint was captured from, opts.Input equals the
// original input, any Switch/Perturb plan targets an instance at or
// after the checkpoint, and opts.StepBudget exceeds the checkpoint's
// step count (RunSwitchedFrom guarantees the last two). The fork is
// always traced and never captures checkpoints of its own.
func runFrom(c *interp.Compiled, ck *checkpoint, opts interp.Options) *interp.Result {
	m := &machine{
		p:         programOf(c),
		input:     opts.Input,
		inPos:     ck.inPos,
		plan:      opts.Switch,
		perturb:   opts.Perturb,
		maxFrames: opts.MaxFrames,
		occ:       append([]int(nil), ck.occ...),
		nextAct:   ck.nextAct,
		res:       &interp.Result{Steps: ck.steps, ResumedAt: ck.steps},
		curEntry:  -1,
	}
	if opts.Ctx != nil {
		if err := opts.Ctx.Err(); err != nil {
			m.res.Err = &interp.RuntimeError{Err: interp.CtxErr(err)}
			return m.res
		}
	}
	budget := opts.StepBudget
	if budget <= 0 {
		budget = interp.DefaultStepBudget
	}
	if m.maxFrames <= 0 {
		m.maxFrames = interp.DefaultMaxFrames
	}
	// forceFirstPoll: the inherited step count is off the poll grid, but
	// the first suffix step must still observe a dead context.
	m.meter = interp.NewStepMeter(&m.res.Steps, budget, opts.Ctx, true)
	m.frames = append([]*frame(nil), ck.frames...)
	m.calls = append([]callRec(nil), ck.calls...)
	m.stack = append([]int64(nil), ck.stack...)
	m.sp = len(m.stack)
	m.tr = ck.prefix.Fork()
	m.res.Trace = m.tr
	m.res.Outputs = m.tr.Outputs // both clipped: first append reallocates
	m.out.WriteString(ck.rendered)

	// The snapshot pc points just past the opCheck the capture fired at;
	// a fork never re-captures (cks == nil), so skipping it is exact.
	m.execTrapped(ck.pc)
	m.tr.Finish()
	m.res.Rendered = m.out.String()
	return m.res
}

// execTrapped runs the dispatch loop with the same abort handling as
// the tree-walker's run().
func (m *machine) execTrapped(pc int32) {
	defer func() {
		if r := recover(); r != nil {
			if a, ok := r.(vmAbort); ok {
				m.res.Err = a.err
				return
			}
			panic(r)
		}
	}()
	m.exec(pc)
}

// exec is the dispatch loop.
func (m *machine) exec(pc int32) {
	code := m.p.code
	for {
		in := &code[pc]
		pc++
		switch in.op {

		case opBegin:
			meta := &m.p.stmts[in.a]
			if err := m.meter.Tick(); err != nil {
				m.fail(meta.pos, int(meta.id), err)
			}
			id := meta.id
			m.occ[id]++
			fr := m.frames[len(m.frames)-1]
			if meta.node != nil && len(fr.ctrl) > 0 && fr.ctrl[len(fr.ctrl)-1].ipdom == meta.node {
				fr = m.thawTop() // popping mutates the ctrl stack
				for len(fr.ctrl) > 0 && fr.ctrl[len(fr.ctrl)-1].ipdom == meta.node {
					fr.ctrl = fr.ctrl[:len(fr.ctrl)-1]
				}
			}
			m.curMeta = meta
			if m.tr == nil {
				m.curEntry = -1
				continue
			}
			parent := fr.callParent
			if len(fr.ctrl) > 0 {
				parent = fr.ctrl[len(fr.ctrl)-1].entryIdx
			}
			idx := m.tr.Append(trace.Entry{
				Inst:   trace.Instance{Stmt: int(id), Occ: m.occ[id]},
				Frame:  int32(fr.id),
				Parent: int32(parent),
			})
			m.curEntry = idx
			m.curE = m.tr.At(idx)

		case opCheck:
			if st := m.cks; st != nil && m.res.Steps >= st.next && m.frames[len(m.frames)-1].id == 1 {
				st.capture(m, pc)
			}

		case opReset:
			m.curEntry = -1
			m.curE = nil
			m.curMeta = nil

		case opHalt:
			return

		case opConst:
			m.push(m.p.consts[in.a])

		case opPop:
			m.sp--

		case opLoadS:
			sym := m.p.syms[in.a]
			c := m.scalarCell(sym)
			m.recordUse(sym.ID, trace.ScalarElem, c.def, c.val)
			m.push(c.val)

		case opLoadA:
			sym := m.p.syms[in.a]
			i := m.pop()
			arr := m.arrayCells(sym)
			if i < 0 || i >= int64(len(arr)) {
				m.fail(in.pos, 0, fmt.Errorf("%w: %s[%d] (size %d)", interp.ErrBounds, sym.Name, i, len(arr)))
			}
			m.recordUse(sym.ID, i, arr[i].def, arr[i].val)
			m.push(arr[i].val)

		case opDeclS, opStoreS:
			sym := m.p.syms[in.a]
			v := m.maybePerturb(m.pop())
			fr := m.writableTargetFrame(sym)
			fr.scalars[sym.Slot] = cell{val: v, def: idxOrNoDef(m.curEntry)}
			m.recordDef(sym.ID, trace.ScalarElem, v)

		case opDeclA:
			sym := m.p.syms[in.a]
			arr := make([]cell, sym.Size)
			d := idxOrNoDef(m.curEntry)
			for i := range arr {
				arr[i].def = d
			}
			fr := m.writableTargetFrame(sym)
			fr.arrays[sym.Slot] = arr
			if fr.arrShared != nil {
				fr.arrShared[sym.Slot] = false
			}
			m.recordDef(sym.ID, trace.ScalarElem, 0)

		case opStoreSOp:
			sym := m.p.syms[in.a]
			rhs := m.pop()
			c := m.writableScalarCell(sym)
			// Compound assignment reads the old value first.
			m.recordUse(sym.ID, trace.ScalarElem, c.def, c.val)
			v := m.binop(token.Kind(in.b), c.val, rhs, in.pos, int(m.curMeta.id))
			v = m.maybePerturb(v)
			c.val = v
			c.def = idxOrNoDef(m.curEntry)
			m.recordDef(sym.ID, trace.ScalarElem, v)

		case opStoreA:
			sym := m.p.syms[in.a]
			i := m.pop()
			rhs := m.pop()
			arr := m.writableArrayCells(sym)
			if i < 0 || i >= int64(len(arr)) {
				m.fail(in.pos, int(m.curMeta.id), fmt.Errorf("%w: %s[%d] (size %d)", interp.ErrBounds, sym.Name, i, len(arr)))
			}
			v := m.maybePerturb(rhs)
			arr[i].val = v
			arr[i].def = idxOrNoDef(m.curEntry)
			m.recordDef(sym.ID, i, v)

		case opStoreAOp:
			sym := m.p.syms[in.a]
			i := m.pop()
			rhs := m.pop()
			arr := m.writableArrayCells(sym)
			if i < 0 || i >= int64(len(arr)) {
				m.fail(in.pos, int(m.curMeta.id), fmt.Errorf("%w: %s[%d] (size %d)", interp.ErrBounds, sym.Name, i, len(arr)))
			}
			m.recordUse(sym.ID, i, arr[i].def, arr[i].val)
			v := m.binop(token.Kind(in.b), arr[i].val, rhs, in.pos, int(m.curMeta.id))
			v = m.maybePerturb(v)
			arr[i].val = v
			arr[i].def = idxOrNoDef(m.curEntry)
			m.recordDef(sym.ID, i, v)

		case opJump:
			pc = in.a

		case opJnz:
			if m.pop() != 0 {
				pc = in.a
			}

		case opJz:
			if m.pop() == 0 {
				pc = in.a
			}

		case opBool:
			if m.stack[m.sp-1] != 0 {
				m.stack[m.sp-1] = 1
			}

		case opPred:
			taken := m.pop() != 0
			meta := m.curMeta
			id := int(meta.id)
			if m.plan != nil && m.plan.Stmt == id && m.plan.Occ == m.occ[id] {
				taken = !taken
				m.res.SwitchApplied = true
				if m.curE != nil {
					m.curE.Switched = true
				}
			}
			if e := m.curE; e != nil {
				if taken {
					e.Branch = cfg.True
					e.Value = 1
				} else {
					e.Branch = cfg.False
					e.Value = 0
				}
			}
			fr := m.thawTop()
			fr.ctrl = append(fr.ctrl, ctrlEntry{entryIdx: m.curEntry, ipdom: meta.ipdom})
			if !taken {
				pc = in.a
			}

		case opPredTrue:
			// Condition-less for: unconditional iteration, never switched.
			if e := m.curE; e != nil {
				e.Branch = cfg.True
				e.Value = 1
			}
			fr := m.thawTop()
			fr.ctrl = append(fr.ctrl, ctrlEntry{entryIdx: m.curEntry, ipdom: m.curMeta.ipdom})

		case opCall, opCallMain:
			fn := &m.p.fns[in.a]
			if len(m.frames) >= m.maxFrames {
				m.fail(in.pos, 0, interp.ErrFrames)
			}
			callSite := m.curEntry
			fr := newFrame(m.nextAct, int(fn.nslots), callSite)
			m.nextAct++
			base := m.sp - int(fn.nargs)
			d := idxOrNoDef(callSite)
			for i, p := range fn.params {
				fr.scalars[p.Slot] = cell{val: m.stack[base+i], def: d}
			}
			if callSite >= 0 {
				for _, p := range fn.params {
					m.tr.AddDef(callSite, trace.DefRec{Sym: p.ID, Elem: trace.ScalarElem})
				}
			}
			m.sp = base
			m.calls = append(m.calls, callRec{
				retpc:      pc,
				base:       int32(base),
				savedEntry: int32(callSite),
				savedMeta:  m.curMeta,
				recordRet:  in.op == opCall,
			})
			m.frames = append(m.frames, fr)
			pc = fn.entry

		case opRetV:
			v := m.pop()
			if m.curE != nil {
				m.curE.Value = v
			}
			pc = m.doReturn(v, m.curEntry)

		case opRet:
			pc = m.doReturn(0, m.curEntry)

		case opEndFn:
			// Fell off the end of a body: no return entry.
			pc = m.doReturn(0, -1)

		case opNeg:
			m.stack[m.sp-1] = -m.stack[m.sp-1]

		case opNot:
			if m.stack[m.sp-1] == 0 {
				m.stack[m.sp-1] = 1
			} else {
				m.stack[m.sp-1] = 0
			}

		case opBnot:
			m.stack[m.sp-1] = ^m.stack[m.sp-1]

		case opAdd:
			b := m.pop()
			m.stack[m.sp-1] += b
		case opSub:
			b := m.pop()
			m.stack[m.sp-1] -= b
		case opMul:
			b := m.pop()
			m.stack[m.sp-1] *= b
		case opQuo:
			b := m.pop()
			if b == 0 {
				m.fail(in.pos, int(in.b), interp.ErrDivZero)
			}
			m.stack[m.sp-1] /= b
		case opRem:
			b := m.pop()
			if b == 0 {
				m.fail(in.pos, int(in.b), interp.ErrDivZero)
			}
			m.stack[m.sp-1] %= b
		case opAnd:
			b := m.pop()
			m.stack[m.sp-1] &= b
		case opOr:
			b := m.pop()
			m.stack[m.sp-1] |= b
		case opXor:
			b := m.pop()
			m.stack[m.sp-1] ^= b
		case opShl:
			b := m.pop()
			if b < 0 || b > 63 {
				m.fail(in.pos, int(in.b), interp.ErrShift)
			}
			m.stack[m.sp-1] <<= uint(b)
		case opShr:
			b := m.pop()
			if b < 0 || b > 63 {
				m.fail(in.pos, int(in.b), interp.ErrShift)
			}
			m.stack[m.sp-1] >>= uint(b)
		case opEql:
			b := m.pop()
			m.stack[m.sp-1] = b2i(m.stack[m.sp-1] == b)
		case opNeq:
			b := m.pop()
			m.stack[m.sp-1] = b2i(m.stack[m.sp-1] != b)
		case opLss:
			b := m.pop()
			m.stack[m.sp-1] = b2i(m.stack[m.sp-1] < b)
		case opLeq:
			b := m.pop()
			m.stack[m.sp-1] = b2i(m.stack[m.sp-1] <= b)
		case opGtr:
			b := m.pop()
			m.stack[m.sp-1] = b2i(m.stack[m.sp-1] > b)
		case opGeq:
			b := m.pop()
			m.stack[m.sp-1] = b2i(m.stack[m.sp-1] >= b)

		case opPrintS:
			m.out.WriteString(m.p.strs[in.a])

		case opPrintV:
			v := m.pop()
			m.out.Write(strconv.AppendInt(m.scratch[:0], v, 10))
			o := trace.Output{Seq: len(m.res.Outputs), Entry: idxOrNoDef(m.curEntry), Arg: int(in.a), Value: v}
			m.res.Outputs = append(m.res.Outputs, o)
			if m.tr != nil {
				m.tr.Outputs = append(m.tr.Outputs, o)
			}

		case opPrintNL:
			m.out.WriteByte('\n')

		case opRead:
			if m.inPos >= len(m.input) {
				m.push(-1)
			} else {
				m.push(m.input[m.inPos])
				m.inPos++
			}

		case opPeek:
			if m.inPos >= len(m.input) {
				m.push(-1)
			} else {
				m.push(m.input[m.inPos])
			}

		case opEof:
			m.push(b2i(m.inPos >= len(m.input)))

		case opAbs:
			if m.stack[m.sp-1] < 0 {
				m.stack[m.sp-1] = -m.stack[m.sp-1]
			}

		case opMin:
			b := m.pop()
			if b < m.stack[m.sp-1] {
				m.stack[m.sp-1] = b
			}

		case opMax:
			b := m.pop()
			if b > m.stack[m.sp-1] {
				m.stack[m.sp-1] = b
			}

		case opAssert:
			if m.stack[m.sp-1] == 0 {
				m.fail(in.pos, 0, interp.ErrAssert)
			}

		default:
			panic(fmt.Sprintf("vm: unexpected opcode %d at pc %d", in.op, pc-1))
		}
	}
}

// doReturn unwinds one activation: pops the frame and call record,
// restores the caller's statement context, records the return-value use
// at the call site (retEntry >= 0 and not the main call), and pushes
// the return value for the caller's expression.
func (m *machine) doReturn(v int64, retEntry int) int32 {
	rec := m.calls[len(m.calls)-1]
	m.calls = m.calls[:len(m.calls)-1]
	m.frames = m.frames[:len(m.frames)-1]
	m.sp = int(rec.base)
	m.curEntry = int(rec.savedEntry)
	m.curMeta = rec.savedMeta
	if m.curEntry >= 0 {
		// Re-fetch: callee entries may have grown the entries slice.
		m.curE = m.tr.At(m.curEntry)
	} else {
		m.curE = nil
	}
	if rec.recordRet && retEntry >= 0 {
		m.recordUse(trace.RetvalSym, trace.ScalarElem, retEntry, v)
	}
	m.push(v)
	return rec.retpc
}

func (m *machine) recordUse(sym int, elem int64, def int, val int64) {
	if m.curE == nil {
		return
	}
	m.tr.AddUse(m.curEntry, trace.UseRec{Sym: int32(sym), Def: int32(def), Elem: elem, Val: val})
}

func (m *machine) recordDef(sym int, elem int64, val int64) {
	if m.curE == nil {
		return
	}
	m.tr.AddDef(m.curEntry, trace.DefRec{Sym: sym, Elem: elem})
	m.curE.Value = val
}

// maybePerturb applies the PerturbPlan if it targets the current
// statement instance.
func (m *machine) maybePerturb(v int64) int64 {
	if m.perturb != nil && m.perturb.Stmt == int(m.curMeta.id) && m.perturb.Occ == m.occ[m.curMeta.id] {
		m.res.PerturbApplied = true
		return m.perturb.Value
	}
	return v
}

func (m *machine) binop(op token.Kind, a, b int64, pos token.Pos, stmt int) int64 {
	switch op {
	case token.ADD:
		return a + b
	case token.SUB:
		return a - b
	case token.MUL:
		return a * b
	case token.QUO:
		if b == 0 {
			m.fail(pos, stmt, interp.ErrDivZero)
		}
		return a / b
	case token.REM:
		if b == 0 {
			m.fail(pos, stmt, interp.ErrDivZero)
		}
		return a % b
	case token.AND:
		return a & b
	case token.OR:
		return a | b
	case token.XOR:
		return a ^ b
	case token.SHL:
		if b < 0 || b > 63 {
			m.fail(pos, stmt, interp.ErrShift)
		}
		return a << uint(b)
	case token.SHR:
		if b < 0 || b > 63 {
			m.fail(pos, stmt, interp.ErrShift)
		}
		return a >> uint(b)
	case token.EQL:
		return b2i(a == b)
	case token.NEQ:
		return b2i(a != b)
	case token.LSS:
		return b2i(a < b)
	case token.LEQ:
		return b2i(a <= b)
	case token.GTR:
		return b2i(a > b)
	case token.GEQ:
		return b2i(a >= b)
	}
	panic(fmt.Sprintf("vm: unexpected binary op %v", op))
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// idxOrNoDef converts a trace index (-1 in plain mode) to a def marker.
func idxOrNoDef(idx int) int {
	if idx < 0 {
		return trace.NoDef
	}
	return idx
}
