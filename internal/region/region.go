// Package region exposes the execution-region decomposition of Definition
// 3 of the PLDI 2007 paper over a trace:
//
//	Region ::= s CD
//	CD     ::= ε | Region | CD Region
//
// A region is a statement execution s together with the statement
// executions control dependent on it. The interpreter's dynamic
// control-parent relation already *is* this decomposition, so a Region
// here is just a view: it is identified by its head entry index, and its
// members are the head plus its region-tree descendants. The virtual root
// region (Head == Root) spans the whole execution.
//
// The navigation operations — surrounding region, first subregion,
// sibling region, branch outcome, membership — are exactly the primitives
// of the paper's matching algorithm (Algorithm 1).
package region

import (
	"fmt"

	"eol/internal/cfg"
	"eol/internal/trace"
)

// Root is the head value of the virtual whole-execution region.
const Root = -1

// Region is a view of one execution region of a trace.
type Region struct {
	T    *trace.Trace
	Head int // entry index of the region head, or Root
}

// String renders the region for diagnostics.
func (r Region) String() string {
	if r.Head == Root {
		return "[root]"
	}
	return fmt.Sprintf("[%s...]", r.T.At(r.Head).Inst)
}

// Whole returns the virtual whole-execution region of t.
func Whole(t *trace.Trace) Region { return Region{T: t, Head: Root} }

// Of returns the immediate surrounding region of entry: the region headed
// by its dynamic control parent (the paper's Region(s)).
func Of(t *trace.Trace, entry int) Region {
	return Region{T: t, Head: int(t.At(entry).Parent)}
}

// Parent returns the immediate surrounding region of r (the paper's
// Region(r)). The parent of the whole-execution region is itself.
func (r Region) Parent() Region {
	if r.Head == Root {
		return r
	}
	return Region{T: r.T, Head: int(r.T.At(r.Head).Parent)}
}

// IsRoot reports whether r is the virtual whole-execution region.
func (r Region) IsRoot() bool { return r.Head == Root }

// Contains reports whether entry belongs to r (the paper's InRegion):
// the head itself or any region-tree descendant of it.
func (r Region) Contains(entry int) bool {
	if r.Head == Root {
		return true
	}
	return r.T.Ancestry().IsAncestor(r.Head, entry)
}

// HeadStmt returns the statement ID of the region head, or 0 for the
// root region.
func (r Region) HeadStmt() int {
	if r.Head == Root {
		return 0
	}
	return r.T.At(r.Head).Inst.Stmt
}

// HeadInstance returns the head's statement instance; zero for the root.
func (r Region) HeadInstance() trace.Instance {
	if r.Head == Root {
		return trace.Instance{}
	}
	return r.T.At(r.Head).Inst
}

// Branch returns the branch outcome taken at the region head (the
// paper's Branch(r)); cfg.None for non-predicate heads and the root.
func (r Region) Branch() cfg.Label {
	if r.Head == Root {
		return cfg.None
	}
	return r.T.At(r.Head).Branch
}

// end returns one past r's last entry: r spans the trace indices
// [Head, end()), the root region [0, Len).
func (r Region) end() int {
	if r.Head == Root {
		return r.T.Len()
	}
	return r.T.Ancestry().End(r.Head)
}

// FirstSub returns the first immediate subregion of r (the paper's
// FirstSubRegion), or ok == false if r has none. Regions are laid out in
// preorder, so it is the entry right after the head, if r spans it.
func (r Region) FirstSub() (Region, bool) {
	if first := r.Head + 1; first < r.end() {
		return Region{T: r.T, Head: first}, true
	}
	return Region{}, false
}

// Sibling returns the next sibling subregion of r within its surrounding
// region (the paper's SiblingRegion), or ok == false if r is the last. It
// starts where r ends, if the surrounding region spans that entry.
func (r Region) Sibling() (Region, bool) {
	if r.Head == Root {
		return Region{}, false
	}
	if next := r.end(); next < r.Parent().end() {
		return Region{T: r.T, Head: next}, true
	}
	return Region{}, false
}

// Size returns the number of entries in the region (head + descendants);
// the root region spans the whole trace.
func (r Region) Size() int { return r.end() - max(r.Head, 0) }
