// Package dataflow implements the static analyses behind potential
// dependences (Definition 1 of the PLDI 2007 paper):
//
//   - intraprocedural reaching definitions over abstract locations (one
//     per scalar symbol, one per whole array object — the deliberate
//     coarseness that reproduces the paper's false potential dependences),
//   - may-define summaries for calls (which globals a call might write,
//     transitively), and
//   - transitive control-dependence closures ("which statements execute
//     only because predicate p took branch L").
//
// The package answers the one static question relevant slicing needs:
// could a different definition of location v reach use site u if
// predicate p had taken its other branch?
//
// An Analysis depends only on the program, is read-only once built, and
// is shared: Of caches one per compiled program.
package dataflow

import (
	"fmt"
	"math/bits"

	"eol/internal/cfg"
	"eol/internal/interp"
	"eol/internal/lang/ast"
	"eol/internal/lang/sem"
)

// DefSite is a static definition site: statement Stmt may define Sym.
// Strong sites overwrite the whole location (scalar assignment, array
// declaration); weak sites (array element writes, call may-defs) do not
// kill other definitions.
type DefSite struct {
	Stmt   int // 0 for the virtual entry definition
	Sym    int
	Strong bool
}

// Analysis holds the static dataflow results for one compiled program.
// Every result is computed by New and never changes afterwards, so one
// Analysis is safe for concurrent readers.
type Analysis struct {
	info *sem.Info
	cfgs *cfg.Program

	// mayDef maps function name -> set of global symbol IDs the function
	// (or its callees) may define.
	mayDef map[string]map[int]bool

	fns map[string]*fnFlow

	// controlled holds the transitive control-dependence closure of every
	// (predicate, branch) pair that has control-dependent statements.
	controlled map[cdKey]StmtSet
}

type cdKey struct {
	pred  int
	label cfg.Label
}

type fnFlow struct {
	sites []DefSite
	// reachIn[stmtID] = bitset over site indices reaching the statement.
	reachIn map[int]bitset
}

// New computes the static analyses for a checked program.
func New(info *sem.Info, cfgs *cfg.Program) *Analysis {
	a := &Analysis{
		info:       info,
		cfgs:       cfgs,
		mayDef:     map[string]map[int]bool{},
		fns:        map[string]*fnFlow{},
		controlled: map[cdKey]StmtSet{},
	}
	a.computeMayDef()
	for name := range info.Funcs {
		a.fns[name] = a.computeReaching(name)
	}
	a.computeControlled()
	return a
}

// analysisKey is the Artifact cache key for a program's Analysis.
var analysisKey int

// Of returns the analysis of c, building it on first use and caching it
// on c (like the VM's bytecode), so every trace, check and filter of one
// compiled program shares one Analysis.
func Of(c *interp.Compiled) *Analysis {
	return c.Artifact(&analysisKey, func() any { return New(c.Info, c.CFG) }).(*Analysis)
}

// MayDefineGlobals returns the set of global symbol IDs that calling fn
// may define, transitively through callees.
func (a *Analysis) MayDefineGlobals(fn string) map[int]bool { return a.mayDef[fn] }

// computeMayDef runs a fixpoint over the call graph.
func (a *Analysis) computeMayDef() {
	for name := range a.info.Funcs {
		a.mayDef[name] = map[int]bool{}
	}
	// Direct global defs.
	for name, fi := range a.info.Funcs {
		for _, id := range fi.StmtIDs {
			for _, s := range a.info.StmtDefs[id] {
				if s.Kind == sem.Global {
					a.mayDef[name][s.ID] = true
				}
			}
		}
	}
	// Transitive closure through calls.
	for changed := true; changed; {
		changed = false
		for name, fi := range a.info.Funcs {
			for _, id := range fi.StmtIDs {
				for _, callee := range a.info.StmtCalls[id] {
					for g := range a.mayDef[callee] {
						if !a.mayDef[name][g] {
							a.mayDef[name][g] = true
							changed = true
						}
					}
				}
			}
		}
	}
}

// defSitesAt returns the definition sites contributed by statement id:
// its direct defs plus call may-defs.
func (a *Analysis) defSitesAt(id int) []DefSite {
	var sites []DefSite
	_, isDecl := a.info.Stmt(id).(*ast.VarDeclStmt)
	for _, s := range a.info.StmtDefs[id] {
		// An array-element write is a weak update of the array object; a
		// scalar write or a whole-array declaration is strong.
		strong := !s.IsArray || isDecl
		sites = append(sites, DefSite{Stmt: id, Sym: s.ID, Strong: strong})
	}
	for _, callee := range a.info.StmtCalls[id] {
		for g := range a.mayDef[callee] {
			sites = append(sites, DefSite{Stmt: id, Sym: g, Strong: false})
		}
	}
	return sites
}

// computeReaching runs iterative reaching definitions over the CFG of fn.
func (a *Analysis) computeReaching(fn string) *fnFlow {
	g := a.cfgs.Funcs[fn]
	f := &fnFlow{reachIn: map[int]bitset{}}
	siteOf := map[[2]int][]int{} // site indices by (stmt, sym)

	// Virtual entry definitions: one per global and per symbol local to
	// fn (params and locals), so that kills behave and "no definition
	// executed yet" is representable. Virtual sites have Stmt == 0 and
	// never participate in potential dependences.
	addSite := func(s DefSite) int {
		idx := len(f.sites)
		f.sites = append(f.sites, s)
		siteOf[[2]int{s.Stmt, s.Sym}] = append(siteOf[[2]int{s.Stmt, s.Sym}], idx)
		return idx
	}
	entryBits := newBitset(0)
	for _, sym := range a.info.Symbols {
		if sym.Kind == sem.Global || (sym.Func != nil && sym.Func.Name == fn) {
			idx := addSite(DefSite{Stmt: 0, Sym: sym.ID, Strong: false})
			entryBits = entryBits.grow(idx + 1)
			entryBits.set(idx)
		}
	}
	// Real sites, per statement of fn.
	fi := a.info.Funcs[fn]
	for _, id := range fi.StmtIDs {
		for _, s := range a.defSitesAt(id) {
			addSite(s)
		}
	}
	n := len(f.sites)

	// Per-node GEN and KILL.
	gen := map[int]bitset{}
	kill := map[int]bitset{}
	for _, id := range fi.StmtIDs {
		gb := newBitset(n)
		kb := newBitset(n)
		for _, idx := range a.siteIdxsAt(siteOf, id) {
			gb.set(idx)
			site := f.sites[idx]
			if site.Strong {
				// kill all other sites of the same symbol
				for j, other := range f.sites {
					if other.Sym == site.Sym && j != idx {
						kb.set(j)
					}
				}
			}
		}
		gen[id] = gb
		kill[id] = kb
	}

	// Iterative worklist over CFG nodes. IN/OUT keyed by node index.
	in := make([]bitset, len(g.Nodes))
	out := make([]bitset, len(g.Nodes))
	for i := range g.Nodes {
		in[i] = newBitset(n)
		out[i] = newBitset(n)
	}
	in[g.Entry.Idx] = entryBits.grow(n)
	out[g.Entry.Idx] = entryBits.grow(n)

	for changed := true; changed; {
		changed = false
		for _, node := range g.Nodes {
			if node == g.Entry {
				continue
			}
			newIn := newBitset(n)
			for _, e := range node.Preds {
				newIn.or(out[e.To.Idx])
			}
			id := node.StmtID()
			newOut := newIn.clone()
			if id != 0 {
				newOut.andNot(kill[id])
				newOut.or(gen[id])
			}
			if !newIn.equal(in[node.Idx]) || !newOut.equal(out[node.Idx]) {
				in[node.Idx] = newIn
				out[node.Idx] = newOut
				changed = true
			}
		}
	}

	for _, node := range g.Nodes {
		if id := node.StmtID(); id != 0 {
			f.reachIn[id] = in[node.Idx]
		}
	}
	return f
}

// siteIdxsAt returns the site indices contributed by statement id.
func (a *Analysis) siteIdxsAt(siteOf map[[2]int][]int, id int) []int {
	var res []int
	seen := map[int]bool{}
	for _, s := range a.defSitesAt(id) {
		for _, idx := range siteOf[[2]int{id, s.Sym}] {
			if !seen[idx] {
				seen[idx] = true
				res = append(res, idx)
			}
		}
	}
	return res
}

// computeControlled computes every transitive control-dependence closure
// ControlledBy can be asked for.
func (a *Analysis) computeControlled() {
	seen := newBitset(a.info.NumStmts() + 1)
	var work []int
	for _, g := range a.cfgs.Funcs {
		for pred, kids := range g.CDKids {
			for label, direct := range kids {
				clear(seen)
				add := func(ids []int) {
					for _, id := range ids {
						if !seen.get(id) && id != pred {
							seen.set(id)
							work = append(work, id)
						}
					}
				}
				add(direct)
				for len(work) > 0 {
					q := work[len(work)-1]
					work = work[:len(work)-1]
					if qk, ok := g.CDKids[q]; ok {
						add(qk[cfg.True])
						add(qk[cfg.False])
						add(qk[cfg.None])
					}
				}
				a.controlled[cdKey{pred, label}] = newStmtSet(seen)
			}
		}
	}
}

// ControlledBy returns the transitive closure of statements whose
// execution is governed by predicate pred taking branch label: the
// statements directly control dependent on (pred, label), plus everything
// control dependent on those, through nested predicates.
func (a *Analysis) ControlledBy(pred int, label cfg.Label) StmtSet {
	return a.controlled[cdKey{pred, label}]
}

// DefsReaching returns the statement IDs of real definition sites of sym
// that may reach the entry of useStmt (virtual entry definitions are
// excluded).
func (a *Analysis) DefsReaching(useStmt, sym int) []int {
	fi := a.info.StmtFunc[useStmt]
	if fi == nil {
		return nil
	}
	f := a.fns[fi.Name]
	bits, ok := f.reachIn[useStmt]
	if !ok {
		return nil
	}
	var res []int
	for idx, site := range f.sites {
		if site.Sym == sym && site.Stmt != 0 && bits.get(idx) {
			res = append(res, site.Stmt)
		}
	}
	return res
}

// EntryReaches reports whether the virtual entry definition of sym — the
// "no definition has executed yet" state — may reach the entry of
// useStmt: some path from function entry to useStmt never strongly
// defines sym. This is the static-checker query behind the
// uninitialized-read pass; note that a plain declaration (`var x;`) is a
// strong definition (MiniC zero-initializes), so the entry definition
// only survives up to the declaration.
func (a *Analysis) EntryReaches(useStmt, sym int) bool {
	fi := a.info.StmtFunc[useStmt]
	if fi == nil {
		return false
	}
	f := a.fns[fi.Name]
	bits, ok := f.reachIn[useStmt]
	if !ok {
		return false
	}
	for idx, site := range f.sites {
		if site.Sym == sym && site.Stmt == 0 && bits.get(idx) {
			return true
		}
	}
	return false
}

// PotentialBranch answers Definition 1's condition (iv): could a
// different definition of sym reach useStmt if predicate pred — which
// dynamically took branch `taken` — had evaluated the other way?
//
// It holds iff some definition site d of sym is (transitively) controlled
// by (pred, opposite-of-taken) and d's definition may reach useStmt. Both
// statements must be in the same function (the analysis is
// intraprocedural; calls are summarized as may-defs of globals).
func (a *Analysis) PotentialBranch(pred int, taken cfg.Label, useStmt, sym int) bool {
	pf, uf := a.info.StmtFunc[pred], a.info.StmtFunc[useStmt]
	if pf == nil || uf == nil || pf != uf {
		return false
	}
	return a.ControlledBy(pred, taken.Negate()).HasAny(a.DefsReaching(useStmt, sym))
}

// PotentialBranchGlobal is the conservative cross-function variant of
// condition (iv) for *global* locations: it holds iff some definition
// site of sym (a direct write or a call that may write it) is
// transitively governed by pred taking the branch opposite to `taken`.
// No reaches-the-use check is attempted across function boundaries; the
// demand-driven verification filters the resulting extra candidates.
func (a *Analysis) PotentialBranchGlobal(pred int, taken cfg.Label, sym int) bool {
	for _, d := range a.ControlledBy(pred, taken.Negate()).IDs() {
		for _, site := range a.defSitesAt(d) {
			if site.Sym == sym {
				return true
			}
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// StmtSet

// StmtSet is a read-only set of statement IDs: a bitset spanning only the
// words between its smallest and its largest member. The zero value is
// the empty set.
type StmtSet struct {
	lo   int // the ID of bit 0, a multiple of 64
	bits bitset
}

// newStmtSet copies the members of b, a bitset indexed by statement ID.
func newStmtSet(b bitset) StmtSet {
	first, last := 0, len(b)
	for first < last && b[first] == 0 {
		first++
	}
	for last > first && b[last-1] == 0 {
		last--
	}
	if first == last {
		return StmtSet{}
	}
	return StmtSet{lo: first * 64, bits: b[first:last].clone()}
}

// Has reports whether id is in the set.
func (s StmtSet) Has(id int) bool { return id >= s.lo && s.bits.get(id-s.lo) }

// HasAny reports whether any of ids is in the set.
func (s StmtSet) HasAny(ids []int) bool {
	for _, id := range ids {
		if s.Has(id) {
			return true
		}
	}
	return false
}

// Len returns the number of members.
func (s StmtSet) Len() int {
	n := 0
	for _, w := range s.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// IDs returns the members in ascending order.
func (s StmtSet) IDs() []int {
	ids := make([]int, 0, s.Len())
	for i, w := range s.bits {
		for ; w != 0; w &= w - 1 {
			ids = append(ids, s.lo+i*64+bits.TrailingZeros64(w))
		}
	}
	return ids
}

// ---------------------------------------------------------------------------
// bitset

type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) grow(n int) bitset {
	need := (n + 63) / 64
	if len(b) >= need {
		return b
	}
	nb := make(bitset, need)
	copy(nb, b)
	return nb
}

func (b bitset) set(i int)      { b[i/64] |= 1 << uint(i%64) }
func (b bitset) get(i int) bool { return i/64 < len(b) && b[i/64]&(1<<uint(i%64)) != 0 }

func (b bitset) clone() bitset {
	nb := make(bitset, len(b))
	copy(nb, b)
	return nb
}

func (b bitset) or(o bitset) {
	for i := range o {
		if i < len(b) {
			b[i] |= o[i]
		}
	}
}

func (b bitset) andNot(o bitset) {
	for i := range o {
		if i < len(b) {
			b[i] &^= o[i]
		}
	}
}

func (b bitset) equal(o bitset) bool {
	if len(b) != len(o) {
		return false
	}
	for i := range b {
		if b[i] != o[i] {
			return false
		}
	}
	return true
}

// String renders set bits for debugging.
func (b bitset) String() string {
	s := "{"
	first := true
	for i := 0; i < len(b)*64; i++ {
		if b.get(i) {
			if !first {
				s += ","
			}
			s += fmt.Sprint(i)
			first = false
		}
	}
	return s + "}"
}
