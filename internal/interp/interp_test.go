package interp

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"eol/internal/cfg"
	"eol/internal/trace"
)

func run(t *testing.T, src string, input []int64) *Result {
	t.Helper()
	c, err := Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	r := Run(c, Options{Input: input, BuildTrace: true})
	if r.Err != nil {
		t.Fatalf("run: %v", r.Err)
	}
	return r
}

func TestArithmeticAndOutput(t *testing.T) {
	src := `
func main() {
    var a = 7;
    var b = 3;
    print(a + b, " ", a - b, " ", a * b, " ", a / b, " ", a % b);
    print(a & b, " ", a | b, " ", a ^ b, " ", a << b, " ", a >> 1);
    print(a < b, " ", a >= b, " ", a == 7, " ", !b, " ", -a, " ", ~a);
}`
	r := run(t, src, nil)
	want := []int64{10, 4, 21, 2, 1, 3, 7, 4, 56, 3, 0, 1, 1, 0, -7, -8}
	if !reflect.DeepEqual(r.OutputValues(), want) {
		t.Errorf("outputs = %v, want %v", r.OutputValues(), want)
	}
}

func TestControlFlow(t *testing.T) {
	src := `
func main() {
    var s = 0;
    for (var i = 0; i < 10; i++) {
        if (i % 2 == 0) { continue; }
        if (i == 7) { break; }
        s += i;
    }
    print(s);
}`
	r := run(t, src, nil)
	if got := r.OutputValues(); len(got) != 1 || got[0] != 1+3+5 {
		t.Errorf("outputs = %v, want [9]", got)
	}
}

func TestWhileAndInput(t *testing.T) {
	src := `
func main() {
    var sum = 0;
    while (!eof()) {
        var v = read();
        sum += v;
    }
    print(sum);
}`
	r := run(t, src, []int64{5, 10, 15})
	if got := r.OutputValues(); len(got) != 1 || got[0] != 30 {
		t.Errorf("outputs = %v, want [30]", got)
	}
}

func TestFunctionsAndRecursion(t *testing.T) {
	src := `
func fib(n) {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}
func main() {
    print(fib(10));
}`
	r := run(t, src, nil)
	if got := r.OutputValues(); len(got) != 1 || got[0] != 55 {
		t.Errorf("fib(10) = %v, want [55]", got)
	}
}

func TestGlobalsAndArrays(t *testing.T) {
	src := `
var buf[8];
var count;
func push(v) {
    buf[count] = v;
    count++;
    return count;
}
func main() {
    push(11);
    push(22);
    push(33);
    print(buf[0], " ", buf[1], " ", buf[2], " ", count, " ", len(buf));
}`
	r := run(t, src, nil)
	want := []int64{11, 22, 33, 3, 8}
	if !reflect.DeepEqual(r.OutputValues(), want) {
		t.Errorf("outputs = %v, want %v", r.OutputValues(), want)
	}
}

func TestShortCircuitNoUse(t *testing.T) {
	// The right side of && must not be evaluated (or traced) when the
	// left side is false: a[9] would be out of bounds.
	src := `
var a[3];
func main() {
    var i = 9;
    if (i < 3 && a[i] > 0) {
        print(1);
    } else {
        print(0);
    }
}`
	r := run(t, src, nil)
	if got := r.OutputValues(); len(got) != 1 || got[0] != 0 {
		t.Errorf("outputs = %v, want [0]", got)
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := []struct {
		src  string
		want error
	}{
		{`func main() { var x = 1 / 0; }`, ErrDivZero},
		{`func main() { var x = 5 % 0; }`, ErrDivZero},
		{`var a[3]; func main() { a[5] = 1; }`, ErrBounds},
		{`var a[3]; func main() { var x = a[-1]; }`, ErrBounds},
		{`func main() { var x = 1 << 64; }`, ErrShift},
		{`func main() { assert(0); }`, ErrAssert},
		{`func f() { return f(); } func main() { f(); }`, ErrFrames},
	}
	for _, c := range cases {
		comp, err := Compile(c.src)
		if err != nil {
			t.Fatalf("compile %q: %v", c.src, err)
		}
		r := Run(comp, Options{BuildTrace: true})
		if r.Err == nil {
			t.Errorf("%q: expected %v, got nil", c.src, c.want)
			continue
		}
		if !errors.Is(r.Err, c.want) {
			t.Errorf("%q: err = %v, want %v", c.src, r.Err, c.want)
		}
	}
}

func TestStepBudget(t *testing.T) {
	src := `func main() { var i = 0; while (i < 1000000) { i++; } print(i); }`
	c, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	r := Run(c, Options{StepBudget: 100})
	if !errors.Is(r.Err, ErrBudget) {
		t.Errorf("err = %v, want ErrBudget", r.Err)
	}
	// The counter is clamped to exactly the budget on expiry — deadline
	// accounting layered on Steps depends on it never overshooting.
	if r.Steps != 100 {
		t.Errorf("Steps = %d, want exactly the budget (100)", r.Steps)
	}
}

// TestStepBudgetExact pins the clamp boundary: a run that needs exactly N
// steps completes under budget N and fails under budget N-1.
func TestStepBudgetExact(t *testing.T) {
	src := `func main() { var i = 0; i = 1; i = 2; print(i); }`
	c, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	full := Run(c, Options{})
	if full.Err != nil {
		t.Fatalf("unbounded run: %v", full.Err)
	}
	n := full.Steps
	if r := Run(c, Options{StepBudget: n}); r.Err != nil {
		t.Errorf("budget %d (exact): err = %v, want clean completion", n, r.Err)
	}
	r := Run(c, Options{StepBudget: n - 1})
	if !errors.Is(r.Err, ErrBudget) {
		t.Errorf("budget %d: err = %v, want ErrBudget", n-1, r.Err)
	}
	if r.Steps != n-1 {
		t.Errorf("budget %d: Steps = %d, want %d", n-1, r.Steps, n-1)
	}
}

func TestContextCancel(t *testing.T) {
	src := `func main() { var i = 0; while (i < 100000000) { i++; } print(i); }`
	c, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}

	// Already-dead context: not a single statement executes.
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	r := Run(c, Options{Ctx: dead})
	if !errors.Is(r.Err, ErrCanceled) || !errors.Is(r.Err, context.Canceled) {
		t.Errorf("dead ctx: err = %v, want ErrCanceled wrapping context.Canceled", r.Err)
	}
	if r.Steps != 0 {
		t.Errorf("dead ctx: Steps = %d, want 0", r.Steps)
	}

	// Deadline firing mid-run: the run aborts at a step checkpoint, far
	// short of the loop's full step count.
	ctx, cancel2 := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel2()
	r = Run(c, Options{Ctx: ctx})
	if !errors.Is(r.Err, ErrDeadline) || !errors.Is(r.Err, context.DeadlineExceeded) {
		t.Errorf("deadline: err = %v, want ErrDeadline wrapping context.DeadlineExceeded", r.Err)
	}
	if !IsCancellation(r.Err) {
		t.Errorf("IsCancellation(%v) = false, want true", r.Err)
	}
	if r.Steps == 0 || r.Steps >= 300000000 {
		t.Errorf("deadline: Steps = %d, want a partial count", r.Steps)
	}
	// The abort lands on the amortized checkpoint stride.
	if r.Steps%ctxCheckEvery != 0 {
		t.Errorf("deadline: Steps = %d, not a multiple of the check stride %d", r.Steps, ctxCheckEvery)
	}
}

const regionSrc = `
func main() {
    var t = 0;
    if (read()) {
        t = 1;
    }
    var i = 0;
    while (i < t) {
        i = i + 1;
    }
    print(i);
}`

func TestDynamicControlParents(t *testing.T) {
	r := run(t, regionSrc, []int64{1})
	tr := r.Trace

	// Find instances.
	find := func(stmt, occ int) int {
		i := tr.FindInstance(trace.Instance{Stmt: stmt, Occ: occ})
		if i < 0 {
			t.Fatalf("S%d#%d not executed", stmt, occ)
		}
		return i
	}
	// Statement IDs in source order:
	// S1 var t; S2 if(read()); S3 t=1; S4 var i; S5 while; S6 i=i+1; S7 print
	ifIdx := find(2, 1)
	thenIdx := find(3, 1)
	w1 := find(5, 1)
	body1 := find(6, 1)
	w2 := find(5, 2)
	printIdx := find(7, 1)

	if int(tr.At(thenIdx).Parent) != ifIdx {
		t.Errorf("then-branch parent = %d, want if at %d", tr.At(thenIdx).Parent, ifIdx)
	}
	if int(tr.At(body1).Parent) != w1 {
		t.Errorf("loop body parent = %d, want while#1 at %d", tr.At(body1).Parent, w1)
	}
	if int(tr.At(w2).Parent) != w1 {
		t.Errorf("while#2 parent = %d, want while#1 at %d (loop self-nesting)", tr.At(w2).Parent, w1)
	}
	if p := int(tr.At(printIdx).Parent); p != int(tr.At(ifIdx).Parent) {
		t.Errorf("print parent = %d, want top level like the if (%d)", p, tr.At(ifIdx).Parent)
	}
	if tr.At(ifIdx).Branch != cfg.True {
		t.Errorf("if branch = %v, want True", tr.At(ifIdx).Branch)
	}
}

func TestCalleeRegionNesting(t *testing.T) {
	src := `
func helper(x) {
    var y = x + 1;
    return y;
}
func main() {
    var r = helper(5);
    print(r);
}`
	r := run(t, src, nil)
	tr := r.Trace
	// Statements: S1 var y (helper), S2 return y, S3 var r, S4 print.
	callIdx := tr.FindInstance(trace.Instance{Stmt: 3, Occ: 1})
	bodyIdx := tr.FindInstance(trace.Instance{Stmt: 1, Occ: 1})
	if callIdx < 0 || bodyIdx < 0 {
		t.Fatalf("instances not found (call=%d body=%d)", callIdx, bodyIdx)
	}
	if int(tr.At(bodyIdx).Parent) != callIdx {
		t.Errorf("callee top-level parent = %d, want call site %d", tr.At(bodyIdx).Parent, callIdx)
	}
}

func TestDataDependences(t *testing.T) {
	src := `
func main() {
    var a = 5;
    var b = a + 1;
    var c = b * 2;
    print(c);
}`
	r := run(t, src, nil)
	tr := r.Trace
	aIdx := tr.FindInstance(trace.Instance{Stmt: 1, Occ: 1})
	bIdx := tr.FindInstance(trace.Instance{Stmt: 2, Occ: 1})
	cIdx := tr.FindInstance(trace.Instance{Stmt: 3, Occ: 1})
	pIdx := tr.FindInstance(trace.Instance{Stmt: 4, Occ: 1})

	wantDep := func(from, to int) {
		t.Helper()
		for _, u := range tr.Uses(from) {
			if int(u.Def) == to {
				return
			}
		}
		t.Errorf("entry %d should data-depend on %d; uses = %v", from, to, tr.Uses(from))
	}
	wantDep(bIdx, aIdx)
	wantDep(cIdx, bIdx)
	wantDep(pIdx, cIdx)
}

func TestReturnValueDependence(t *testing.T) {
	src := `
func two() {
    return 2;
}
func main() {
    var x = two();
    print(x);
}`
	r := run(t, src, nil)
	tr := r.Trace
	retIdx := tr.FindInstance(trace.Instance{Stmt: 1, Occ: 1}) // return 2
	xIdx := tr.FindInstance(trace.Instance{Stmt: 2, Occ: 1})   // var x = two()
	found := false
	for _, u := range tr.Uses(xIdx) {
		if u.Sym == trace.RetvalSym && int(u.Def) == retIdx {
			found = true
		}
	}
	if !found {
		t.Errorf("var x should depend on the return entry %d; uses = %v", retIdx, tr.Uses(xIdx))
	}
}

func TestSwitchPlan(t *testing.T) {
	src := `
func main() {
    var x = read();
    if (x > 0) {
        print(1);
    } else {
        print(0);
    }
}`
	c, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	// x = 5 normally prints 1; switched prints 0.
	r1 := Run(c, Options{Input: []int64{5}, BuildTrace: true})
	if got := r1.OutputValues(); got[0] != 1 {
		t.Fatalf("normal run printed %v", got)
	}
	r2 := Run(c, Options{Input: []int64{5}, Switch: &SwitchPlan{Stmt: 2, Occ: 1}, BuildTrace: true})
	if !r2.SwitchApplied {
		t.Fatal("switch not applied")
	}
	if got := r2.OutputValues(); got[0] != 0 {
		t.Errorf("switched run printed %v, want [0]", got)
	}
	// The switched entry must be marked.
	idx := r2.Trace.FindInstance(trace.Instance{Stmt: 2, Occ: 1})
	if !r2.Trace.At(idx).Switched {
		t.Error("switched predicate entry not marked")
	}
	if r2.Trace.At(idx).Branch != cfg.False {
		t.Errorf("effective branch = %v, want False", r2.Trace.At(idx).Branch)
	}
}

func TestSwitchLoopPredicateInstance(t *testing.T) {
	// Switching the 3rd instance of the while predicate ends the loop early.
	src := `
func main() {
    var i = 0;
    while (i < 5) {
        i++;
    }
    print(i);
}`
	c, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	r := Run(c, Options{Switch: &SwitchPlan{Stmt: 2, Occ: 3}, BuildTrace: true})
	if !r.SwitchApplied {
		t.Fatal("switch not applied")
	}
	if got := r.OutputValues(); got[0] != 2 {
		t.Errorf("switched loop printed %v, want [2]", got)
	}
}

// TestDeterminism: two traced runs on the same input are identical —
// the prefix-identity property the alignment algorithm relies on.
func TestDeterminism(t *testing.T) {
	src := `
var h[16];
func mix(v) {
    return (v * 31 + 7) % 97;
}
func main() {
    var n = read();
    var i = 0;
    while (i < n) {
        var v = read();
        h[mix(v) % 16] += v;
        i++;
    }
    for (var j = 0; j < 16; j++) {
        if (h[j] > 0) { print(j, ":", h[j]); }
    }
}`
	c, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw []int16) bool {
		input := make([]int64, 0, len(raw)+1)
		input = append(input, int64(len(raw)))
		for _, v := range raw {
			input = append(input, int64(v))
		}
		r1 := Run(c, Options{Input: input, BuildTrace: true})
		r2 := Run(c, Options{Input: input, BuildTrace: true})
		if r1.Err != nil || r2.Err != nil {
			return r1.Err != nil && r2.Err != nil
		}
		if r1.Rendered != r2.Rendered || r1.Steps != r2.Steps {
			return false
		}
		if r1.Trace.Len() != r2.Trace.Len() {
			return false
		}
		for i := 0; i < r1.Trace.Len(); i++ {
			a, b := r1.Trace.At(i), r2.Trace.At(i)
			if a.Inst != b.Inst || a.Parent != b.Parent || a.Value != b.Value || a.Branch != b.Branch {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestRegionTreeWellFormed: parents always precede children, and every
// non-root parent is a predicate or a call-site statement.
func TestRegionTreeWellFormed(t *testing.T) {
	src := `
func helper(n) {
    var s = 0;
    for (var i = 0; i < n; i++) {
        if (i % 3 == 0) { continue; }
        s += i;
    }
    return s;
}
func main() {
    var total = 0;
    var r = 0;
    while (!eof()) {
        r = helper(read());
        total += r;
    }
    print(total);
}`
	r := run(t, src, []int64{4, 7, 2})
	tr := r.Trace
	for i := 0; i < tr.Len(); i++ {
		p := int(tr.At(i).Parent)
		if p >= i {
			t.Fatalf("entry %d has parent %d (must precede it)", i, p)
		}
		if p >= 0 {
			// children of entry p must be in increasing order
			kids := tr.Children(p)
			for j := 1; j < len(kids); j++ {
				if kids[j] <= kids[j-1] {
					t.Fatalf("children of %d not ordered: %v", p, kids)
				}
			}
		}
	}
}

func TestPlainModeMatchesTraceMode(t *testing.T) {
	src := `
func main() {
    var n = read();
    var f = 1;
    for (var i = 1; i <= n; i++) { f *= i; }
    print(f);
}`
	c, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	plain := Run(c, Options{Input: []int64{6}})
	traced := Run(c, Options{Input: []int64{6}, BuildTrace: true})
	if plain.Rendered != traced.Rendered {
		t.Errorf("plain %q != traced %q", plain.Rendered, traced.Rendered)
	}
	if plain.Trace != nil {
		t.Error("plain mode must not build a trace")
	}
	if !reflect.DeepEqual(plain.OutputValues(), traced.OutputValues()) {
		t.Errorf("outputs differ: %v vs %v", plain.OutputValues(), traced.OutputValues())
	}
}

func TestPerturbPlan(t *testing.T) {
	src := `
func main() {
    var a = read();
    var b = a * 2;
    print(b);
}`
	c, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	// Perturb a's definition: b follows the replaced value.
	r := Run(c, Options{Input: []int64{5}, Perturb: &PerturbPlan{Stmt: 1, Occ: 1, Value: 9}, BuildTrace: true})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if !r.PerturbApplied {
		t.Fatal("perturbation not applied")
	}
	if got := r.OutputValues(); got[0] != 18 {
		t.Errorf("outputs = %v, want [18]", got)
	}
	// The trace records the perturbed value as the definition's value.
	idx := r.Trace.FindInstance(trace.Instance{Stmt: 1, Occ: 1})
	if r.Trace.At(idx).Value != 9 {
		t.Errorf("recorded value = %d, want 9", r.Trace.At(idx).Value)
	}
}

func TestPerturbSpecificOccurrence(t *testing.T) {
	src := `
func main() {
    var s = 0;
    for (var i = 0; i < 3; i++) {
        s = s + 10;
    }
    print(s);
}`
	c, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	// "s = s + 10" is S4 (S1 var s, S2 var i, S3 for, S4 body, S5 post).
	// Perturb only its 2nd instance to 0: iterations produce 10, 0, 10.
	r := Run(c, Options{Perturb: &PerturbPlan{Stmt: 4, Occ: 2, Value: 0}})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if got := r.OutputValues(); got[0] != 10 {
		t.Errorf("outputs = %v, want [10] (second accumulation zeroed)", got)
	}
}

func TestPerturbUnreachedInstance(t *testing.T) {
	c, err := Compile(`func main() { var a = 1; print(a); }`)
	if err != nil {
		t.Fatal(err)
	}
	r := Run(c, Options{Perturb: &PerturbPlan{Stmt: 1, Occ: 5, Value: 9}})
	if r.PerturbApplied {
		t.Error("occurrence 5 never happens")
	}
	if got := r.OutputValues(); got[0] != 1 {
		t.Errorf("outputs = %v, want unchanged [1]", got)
	}
}

func TestPerturbArrayElement(t *testing.T) {
	src := `
var a[4];
func main() {
    a[2] = 7;
    print(a[2]);
}`
	c, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	// The store is S2 (S1 is the global decl).
	r := Run(c, Options{Perturb: &PerturbPlan{Stmt: 2, Occ: 1, Value: 42}})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if got := r.OutputValues(); got[0] != 42 {
		t.Errorf("outputs = %v, want [42]", got)
	}
}

// TestNestedLoopTorture cross-checks deeply nested loop control flow
// against the same computation in Go.
func TestNestedLoopTorture(t *testing.T) {
	src := `
func main() {
    var acc = 0;
    for (var i = 0; i < 6; i++) {
        if (i == 4) { continue; }
        var j = 0;
        while (j < 5) {
            j++;
            if (j == 3 && i % 2 == 0) { continue; }
            if (j == 4 && i == 3) { break; }
            for (var k = 0; k < 3; k++) {
                if (k == 2) { break; }
                acc = acc + i*100 + j*10 + k;
            }
        }
    }
    print(acc);
}`
	want := int64(0)
	for i := int64(0); i < 6; i++ {
		if i == 4 {
			continue
		}
		j := int64(0)
		for j < 5 {
			j++
			if j == 3 && i%2 == 0 {
				continue
			}
			if j == 4 && i == 3 {
				break
			}
			for k := int64(0); k < 3; k++ {
				if k == 2 {
					break
				}
				want += i*100 + j*10 + k
			}
		}
	}
	r := run(t, src, nil)
	if got := r.OutputValues()[0]; got != want {
		t.Errorf("acc = %d, want %d", got, want)
	}
}

// TestMutualRecursion: parity via mutual recursion.
func TestMutualRecursion(t *testing.T) {
	src := `
func isEven(n) {
    if (n == 0) { return 1; }
    return isOdd(n - 1);
}
func isOdd(n) {
    if (n == 0) { return 0; }
    return isEven(n - 1);
}
func main() {
    print(isEven(10), " ", isEven(7), " ", isOdd(3));
}`
	r := run(t, src, nil)
	want := []int64{1, 0, 1}
	if !reflect.DeepEqual(r.OutputValues(), want) {
		t.Errorf("outputs = %v, want %v", r.OutputValues(), want)
	}
}

// TestBuiltinsCoverage: peek/abs/min/max semantics.
func TestBuiltinsCoverage(t *testing.T) {
	src := `
func main() {
    print(peek());
    print(read());
    print(peek());
    print(abs(-7), " ", abs(7));
    print(min(3, -2), " ", max(3, -2));
    print(eof());
    print(read());
    print(eof());
    print(read(), " ", peek());
}`
	r := run(t, src, []int64{42, 9})
	want := []int64{42, 42, 9, 7, 7, -2, 3, 0, 9, 1, -1, -1}
	if !reflect.DeepEqual(r.OutputValues(), want) {
		t.Errorf("outputs = %v, want %v", r.OutputValues(), want)
	}
}

// TestRenderedFormatting: string literals interleave verbatim, newline per
// print.
func TestRenderedFormatting(t *testing.T) {
	src := `func main() { print("x=", 1, ", y=", 2); print("done"); }`
	r := run(t, src, nil)
	if r.Rendered != "x=1, y=2\ndone\n" {
		t.Errorf("rendered = %q", r.Rendered)
	}
	// Only ints are output events.
	if len(r.Outputs) != 2 {
		t.Errorf("output events = %d, want 2", len(r.Outputs))
	}
}

// TestShadowingSemantics: inner declarations hide outer ones and vanish
// at block exit.
func TestShadowingSemantics(t *testing.T) {
	src := `
var x;
func main() {
    x = 1;
    var y = 0;
    {
        var x = 10;
        x = 20;
        y = x;
    }
    print(x, " ", y);
}`
	r := run(t, src, nil)
	want := []int64{1, 20}
	if !reflect.DeepEqual(r.OutputValues(), want) {
		t.Errorf("outputs = %v, want %v", r.OutputValues(), want)
	}
}
