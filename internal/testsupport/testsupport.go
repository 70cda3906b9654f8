// Package testsupport provides helpers shared by the test suites of the
// analysis packages: compiling MiniC snippets, locating statements by
// source fragment, and canned example programs from the paper's figures.
package testsupport

import (
	"fmt"
	"reflect"
	"slices"
	"strings"

	"eol/internal/check"
	"eol/internal/interp"
	"eol/internal/lang/ast"
	"eol/internal/trace"
)

// TB is the subset of testing.TB used here, so this package does not
// import "testing" (which would trip vet in non-test code).
type TB interface {
	Helper()
	Fatalf(format string, args ...any)
}

// Compile compiles src or fails the test.
func Compile(t TB, src string) *interp.Compiled {
	t.Helper()
	c, err := interp.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return c
}

// EntryDiff compares entry i of two traces by content: every exported
// Entry field, then the entry's use and definition records. It returns
// "" when they agree, else what differs. Record arena offsets are not
// compared: they differ between traces that record the same entries (a
// fork's suffix records start at offset 0).
func EntryDiff(want, got *trace.Trace, i int) string {
	w, g := reflect.ValueOf(*want.At(i)), reflect.ValueOf(*got.At(i))
	for k := 0; k < w.NumField(); k++ {
		f := w.Type().Field(k)
		if f.IsExported() && !reflect.DeepEqual(w.Field(k).Interface(), g.Field(k).Interface()) {
			return fmt.Sprintf("entry %d: %s = %v, want %v", i, f.Name, g.Field(k), w.Field(k))
		}
	}
	if wu, gu := want.Uses(i), got.Uses(i); !slices.Equal(wu, gu) {
		return fmt.Sprintf("entry %d: uses = %v, want %v", i, gu, wu)
	}
	if wd, gd := want.Defs(i), got.Defs(i); !slices.Equal(wd, gd) {
		return fmt.Sprintf("entry %d: defs = %v, want %v", i, gd, wd)
	}
	return ""
}

// Run executes a compiled program with tracing and fails the test on a
// runtime error.
func Run(t TB, c *interp.Compiled, input []int64) *interp.Result {
	t.Helper()
	r := interp.Run(c, interp.Options{Input: input, BuildTrace: true})
	if r.Err != nil {
		t.Fatalf("run: %v", r.Err)
	}
	return r
}

// Validate runs the static checker suite (internal/check) over a
// compiled subject and reports Error-severity findings — unreachable
// code, constant out-of-bounds indices — that would silently corrupt
// slice sizes or verification counts if the subject entered a harness.
// Warnings and infos are tolerated: benchmark faults deliberately look
// suspicious.
func Validate(c *interp.Compiled) error {
	var bad []string
	for _, d := range check.Vet(check.NewUnit(c)) {
		if d.Severity == check.Error {
			bad = append(bad, d.String())
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("subject fails static validation:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}

// MustValid fails the test when Validate rejects the subject.
func MustValid(t TB, c *interp.Compiled) {
	t.Helper()
	if err := Validate(c); err != nil {
		t.Fatalf("%v", err)
	}
}

// StmtID returns the ID of the first statement whose one-line rendering
// contains frag.
func StmtID(t TB, c *interp.Compiled, frag string) int {
	t.Helper()
	for _, s := range c.Info.Stmts {
		if strings.Contains(ast.StmtString(s), frag) {
			return s.ID()
		}
	}
	t.Fatalf("no statement containing %q in:\n%s", frag, NumberedListing(c))
	return 0
}

// NumberedListing renders the program with S<n> labels for diagnostics.
func NumberedListing(c *interp.Compiled) string {
	var sb strings.Builder
	for _, s := range c.Info.Stmts {
		fmt.Fprintf(&sb, "S%-3d %s\n", s.ID(), ast.StmtString(s))
	}
	return sb.String()
}

// Fig1Faulty is the MiniC analog of the paper's Figure 1 (gzip v3/r1):
// the root cause zeroes saveOrigName, so the "if (saveOrigName)" branch
// that would set the ORIG_NAME flag bit is not taken, and the flags byte
// written into outbuf — and later printed — is wrong. Classic dynamic
// slicing misses the root cause; relevant slicing and the implicit-
// dependence technique capture it.
const Fig1Faulty = `
var flags;
var outbuf[8];
var outcnt;

func main() {
    var deflated = 8;
    var saveOrigName = read() * 0;  // ROOT CAUSE: should be read()
    flags = 0;
    var method = deflated;
    if (saveOrigName) {             // paper's S4
        flags = flags | 8;          // paper's S5: flags |= ORIG_NAME
    }
    outbuf[outcnt] = method;
    outcnt = outcnt + 1;
    outbuf[outcnt] = flags;         // paper's S6
    outcnt = outcnt + 1;
    if (saveOrigName) {             // paper's S7
        outbuf[outcnt] = 99;        // paper's S8: original-name byte
        outcnt = outcnt + 1;
    }
    print(outbuf[0]);               // paper's S9: correct output
    print(outbuf[1]);               // paper's S10: wrong output
}
`

// Fig1Fixed is the corrected version of Fig1Faulty, used as the oracle.
var Fig1Fixed = strings.Replace(Fig1Faulty,
	"var saveOrigName = read() * 0;", "var saveOrigName = read();", 1)

// Fig1Input drives the save-original-name path: with the fix the program
// prints [8 8]; the faulty program prints [8 0], so output #1 is the
// first wrong output.
var Fig1Input = []int64{1}
