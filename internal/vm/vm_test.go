package vm

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"eol/internal/interp"
	"eol/internal/testsupport"
	"eol/internal/trace"
)

// diffPrograms covers every statement and expression form, both error
// and error-free, so the backend comparison exercises each opcode path.
var diffPrograms = map[string]string{
	"arith": `
func main() {
	var a = 7; var b = 3;
	print(a+b, " ", a-b, " ", a*b, " ", a/b, " ", a%b);
	print(a&b, " ", a|b, " ", a^b, " ", a<<b, " ", a>>1, " ", ~a, " ", -a, " ", !a);
	print(a==b, " ", a!=b, " ", a<b, " ", a<=b, " ", a>b, " ", a>=b);
}`,
	"shortcircuit": `
var g = 0;
func side() { g = g + 1; return g; }
func main() {
	var x = side() && side();
	var y = 0 || side();
	var z = 0 && side();
	print(x, " ", y, " ", z, " ", g);
}`,
	"loops": `
func main() {
	var s = 0;
	var i = 0;
	while (i < 10) {
		i = i + 1;
		if (i == 3) { continue; }
		if (i == 8) { break; }
		s = s + i;
	}
	for (var j = 0; j < 5; j = j + 1) {
		if (j % 2 == 0) { s = s + j; } else { s = s - 1; }
	}
	var k = 0;
	for (;;) {
		k = k + 1;
		if (k > 3) { break; }
	}
	print(s, " ", k);
}`,
	"arrays": `
var a[5];
func main() {
	var i = 0;
	while (i < len(a)) { a[i] = i * i; i = i + 1; }
	a[2] += 10;
	a[3] = a[2] + a[1];
	var b[3];
	b[0] = a[4];
	print(a[0], a[1], a[2], a[3], a[4], " ", b[0], b[1]);
}`,
	"calls": `
var base = read();
func f(x, y) {
	if (x <= 0) { return y; }
	return f(x - 1, y + x);
}
func g() { return base * 2; }
func main() {
	print(f(4, g()));
	print(f(0, 0) + f(1, 1));
}`,
	"globals_with_calls": `
func ten() { return 10; }
var a = ten() + 1;
var b = a * 2;
func main() { print(a, " ", b); }`,
	"builtins": `
func main() {
	var a = read(); var b = read();
	print(abs(a - b), " ", min(a, b), " ", max(a, b));
	while (!eof()) { print(peek(), " ", read()); }
	print(read(), " ", eof());
}`,
	"compound": `
func main() {
	var x = 100;
	x += 5; x -= 2; x *= 3; x /= 4; x %= 50;
	x <<= 2; x >>= 1; x &= 255; x |= 16; x ^= 3;
	print(x);
}`,
	"elseif": `
func main() {
	var v = read();
	if (v < 0) { print(0 - 1); }
	else if (v == 0) { print(0); }
	else if (v < 10) { print(1); }
	else { print(2); }
}`,
	"return_paths": `
func early(x) {
	if (x > 0) { return; }
	print(x);
}
func noret(x) { x = x + 1; }
func main() {
	early(1);
	early(0 - 1);
	print(noret(5));
	var implicit = noret(2);
	print(implicit);
}`,
	"div_zero": `
func main() {
	var d = read();
	print(10 / d);
}`,
	"mod_zero_compound": `
func main() {
	var x = 9;
	x %= read();
	print(x);
}`,
	"bounds_read": `
var a[3];
func main() {
	var i = read();
	print(a[i]);
}`,
	"bounds_write": `
var a[3];
func main() {
	a[read()] = 7;
}`,
	"bounds_compound": `
var a[3];
func main() {
	a[read()] += 1;
}`,
	"shift_range": `
func main() {
	print(1 << read());
}`,
	"assert_fail": `
func main() {
	var x = read();
	assert(x > 10);
	print(x);
}`,
	"frames": `
func loop(n) { return loop(n + 1); }
func main() { print(loop(0)); }`,
	"switchable": `
var wrong = 0;
func main() {
	var n = read();
	var acc = 0;
	var i = 0;
	while (i < n) {
		if (i % 3 == 0) { acc = acc + i; }
		if (acc > 10) { wrong = 1; } else { wrong = 2; }
		i = i + 1;
	}
	print(acc, " ", wrong);
}`,
	"uninit_array_use": `
var a[4];
func touch() { a[1] = 5; return a[1]; }
var seeded = touch();
func main() { print(a[0], " ", a[1], " ", seeded); }`,
}

var diffInputs = [][]int64{
	nil,
	{0},
	{5, 2},
	{3, 0, 7, 1},
	{-4, 99, 2, 0, 1, 64},
}

// compareResults asserts byte-identity of two results, the heart of the
// backend contract: steps, outputs, rendered text, applied plans, error
// (position, statement and message), and every trace entry.
func compareResults(t *testing.T, want, got *interp.Result) {
	t.Helper()
	if want.Steps != got.Steps {
		t.Fatalf("Steps: tree %d, vm %d", want.Steps, got.Steps)
	}
	if want.ResumedAt != got.ResumedAt {
		t.Fatalf("ResumedAt: tree %d, vm %d", want.ResumedAt, got.ResumedAt)
	}
	if want.Rendered != got.Rendered {
		t.Fatalf("Rendered:\ntree %q\nvm   %q", want.Rendered, got.Rendered)
	}
	if want.SwitchApplied != got.SwitchApplied || want.PerturbApplied != got.PerturbApplied {
		t.Fatalf("applied flags: tree (%v,%v), vm (%v,%v)",
			want.SwitchApplied, want.PerturbApplied, got.SwitchApplied, got.PerturbApplied)
	}
	if !sameOutputs(want.Outputs, got.Outputs) {
		t.Fatalf("Outputs:\ntree %v\nvm   %v", want.Outputs, got.Outputs)
	}
	compareErr(t, want.Err, got.Err)
	compareTraces(t, want.Trace, got.Trace)
}

func compareErr(t *testing.T, want, got error) {
	t.Helper()
	if (want == nil) != (got == nil) {
		t.Fatalf("Err: tree %v, vm %v", want, got)
	}
	if want == nil {
		return
	}
	if want.Error() != got.Error() {
		t.Fatalf("Err text: tree %q, vm %q", want, got)
	}
	var wr, gr *interp.RuntimeError
	if !errors.As(want, &wr) || !errors.As(got, &gr) {
		t.Fatalf("Err types: tree %T, vm %T", want, got)
	}
	if wr.Pos != gr.Pos || wr.Stmt != gr.Stmt {
		t.Fatalf("Err site: tree %v S%d, vm %v S%d", wr.Pos, wr.Stmt, gr.Pos, gr.Stmt)
	}
}

func compareTraces(t *testing.T, want, got *trace.Trace) {
	t.Helper()
	if (want == nil) != (got == nil) {
		t.Fatalf("Trace: tree %v, vm %v", want != nil, got != nil)
	}
	if want == nil {
		return
	}
	if want.Len() != got.Len() {
		t.Fatalf("Trace length: tree %d, vm %d", want.Len(), got.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if !reflect.DeepEqual(*want.At(i), *got.At(i)) {
			t.Fatalf("entry %d:\ntree %+v\nvm   %+v", i, *want.At(i), *got.At(i))
		}
	}
	if !sameOutputs(want.Outputs, got.Outputs) {
		t.Fatalf("trace Outputs:\ntree %v\nvm   %v", want.Outputs, got.Outputs)
	}
}

// sameOutputs compares output records, treating nil and empty alike: a
// fork starts from the prefix's (possibly empty) output slice, a full
// run from nil.
func sameOutputs(want, got []trace.Output) bool {
	return len(want) == len(got) && (len(want) == 0 || reflect.DeepEqual(want, got))
}

func runBoth(t *testing.T, c *interp.Compiled, opts interp.Options) (*interp.Result, *interp.Result) {
	t.Helper()
	tree := interp.Tree.Run(c, opts)
	vm := Backend.Run(c, opts)
	return tree, vm
}

func TestDifferentialPrograms(t *testing.T) {
	for name, src := range diffPrograms {
		t.Run(name, func(t *testing.T) {
			c := interp.MustCompile(src)
			for i, input := range diffInputs {
				for _, traced := range []bool{false, true} {
					opts := interp.Options{Input: input, BuildTrace: traced}
					tree, vm := runBoth(t, c, opts)
					if tree.Err != nil && !errors.As(tree.Err, new(*interp.RuntimeError)) {
						t.Fatalf("input %d: unexpected error type %T", i, tree.Err)
					}
					compareResults(t, tree, vm)
				}
			}
		})
	}
}

// TestDifferentialSwitch flips every predicate instance of every traced
// run (capped) on both backends and compares the switched results.
func TestDifferentialSwitch(t *testing.T) {
	for name, src := range diffPrograms {
		t.Run(name, func(t *testing.T) {
			c := interp.MustCompile(src)
			input := diffInputs[3]
			orig := interp.Tree.Run(c, interp.Options{Input: input, BuildTrace: true})
			n := 0
			for i := 0; i < orig.Trace.Len() && n < 12; i++ {
				e := orig.Trace.At(i)
				if e.Branch == 0 { // not a predicate
					continue
				}
				n++
				plan := &interp.SwitchPlan{Stmt: e.Inst.Stmt, Occ: e.Inst.Occ}
				opts := interp.Options{Input: input, BuildTrace: true, Switch: plan}
				tree, vm := runBoth(t, c, opts)
				if !tree.SwitchApplied {
					t.Fatalf("switch %v not applied", plan)
				}
				compareResults(t, tree, vm)
			}
		})
	}
}

// TestDifferentialPerturb perturbs defining instances on both backends.
func TestDifferentialPerturb(t *testing.T) {
	c := interp.MustCompile(diffPrograms["switchable"])
	input := []int64{9}
	orig := interp.Tree.Run(c, interp.Options{Input: input, BuildTrace: true})
	n := 0
	for i := 0; i < orig.Trace.Len() && n < 10; i++ {
		e := orig.Trace.At(i)
		if len(e.Defs) == 0 {
			continue
		}
		n++
		plan := &interp.PerturbPlan{Stmt: e.Inst.Stmt, Occ: e.Inst.Occ, Value: 77}
		opts := interp.Options{Input: input, BuildTrace: true, Perturb: plan}
		tree, vm := runBoth(t, c, opts)
		compareResults(t, tree, vm)
	}
}

// TestDifferentialBudget sweeps the step budget through every possible
// expiry point: identical Steps (clamped at the budget), error class,
// and trace prefix at the cut.
func TestDifferentialBudget(t *testing.T) {
	c := interp.MustCompile(diffPrograms["loops"])
	full := interp.Tree.Run(c, interp.Options{BuildTrace: true})
	if full.Err != nil {
		t.Fatal(full.Err)
	}
	for budget := 1; budget <= full.Steps+1; budget++ {
		opts := interp.Options{BuildTrace: true, StepBudget: budget}
		tree, vm := runBoth(t, c, opts)
		if budget < full.Steps {
			if !errors.Is(tree.Err, interp.ErrBudget) || tree.Steps != budget {
				t.Fatalf("budget %d: tree err %v steps %d", budget, tree.Err, tree.Steps)
			}
		} else if tree.Err != nil {
			t.Fatalf("budget %d: unexpected %v", budget, tree.Err)
		}
		compareResults(t, tree, vm)
	}
}

// countdownCtx is a deterministic cancellation probe: Err() flips
// non-nil after a fixed number of calls, so both backends observe the
// cancellation at the same poll — provided they poll on the same step
// grid, which is exactly what the test pins.
type countdownCtx struct {
	context.Context
	left int
}

func (c *countdownCtx) Err() error {
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

func TestDifferentialCtxCancel(t *testing.T) {
	// A program long enough to cross several 1024-step poll marks.
	c := interp.MustCompile(`
func main() {
	var s = 0;
	var i = 0;
	while (i < 3000) { s = s + i; i = i + 1; }
	print(s);
}`)
	for _, polls := range []int{1, 2, 3, 4} {
		// Each backend gets its own countdown so both see the identical
		// Err() sequence: one startup check plus one per on-grid poll.
		tree := interp.Tree.Run(c, interp.Options{BuildTrace: true, Ctx: &countdownCtx{left: polls}})
		vm := Backend.Run(c, interp.Options{BuildTrace: true, Ctx: &countdownCtx{left: polls}})
		if tree.Err == nil != (vm.Err == nil) {
			t.Fatalf("polls %d: tree err %v, vm err %v", polls, tree.Err, vm.Err)
		}
		if tree.Err != nil && !interp.IsCancellation(tree.Err) {
			t.Fatalf("polls %d: unexpected %v", polls, tree.Err)
		}
		compareResults(t, tree, vm)
	}
}

// TestDifferentialRandom fuzzes generated programs through both
// backends in plain and trace mode.
func TestDifferentialRandom(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		src := testsupport.RandomProgram(rnd, testsupport.GenConfig{})
		input := testsupport.RandomInput(rnd, 8)
		c, err := interp.Compile(src)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		for _, traced := range []bool{false, true} {
			tree, vm := runBoth(t, c, interp.Options{Input: input, BuildTrace: traced})
			compareResults(t, tree, vm)
		}
	}
}

// TestCheckpointFork pins the VM's pc/frame-stack checkpoints: a
// switched fork from every retained snapshot must be byte-identical to
// the tree-walker's full switched run, and capturing must leave the
// failing run itself unchanged.
func TestCheckpointFork(t *testing.T) {
	c := interp.MustCompile(diffPrograms["switchable"])
	input := []int64{40}

	cks := NewStore(8)
	vmRun := Backend.Run(c, interp.Options{Input: input, BuildTrace: true, Checkpoints: cks})
	compareResults(t, treeFull(c, interp.Options{Input: input}), vmRun)
	if cks.Len() == 0 {
		t.Fatal("no checkpoints captured")
	}

	forks := 0
	for _, p := range predicateInstances(vmRun.Trace) {
		opts := interp.Options{Input: input, BuildTrace: true, Switch: switchAt(vmRun.Trace, p)}
		fork := Backend.RunSwitchedFrom(cks, vmRun.Trace, c, opts)
		if fork == nil {
			continue
		}
		forks++
		compareFork(t, treeFull(c, opts), fork, cks.Nearest(p).steps)
	}
	if forks == 0 {
		t.Fatal("no forks exercised")
	}
}

// TestForeignCheckpointStore: the tree-walker builds no checkpoint
// store, and handing it the VM's store must be a no-op (run completes,
// nothing captured, forks decline).
func TestForeignCheckpointStore(t *testing.T) {
	c := interp.MustCompile(diffPrograms["switchable"])
	input := []int64{12}
	plan := &interp.SwitchPlan{Stmt: 1, Occ: 1}

	if st := interp.Tree.NewCheckpoints(4); st != nil {
		t.Fatalf("tree backend built a checkpoint store: %T", st)
	}

	vmStore := Backend.NewCheckpoints(4)
	res := interp.Tree.Run(c, interp.Options{Input: input, BuildTrace: true, Checkpoints: vmStore})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if vmStore.Len() != 0 {
		t.Fatalf("tree run captured into a VM store: %d", vmStore.Len())
	}
	if r := interp.Tree.RunSwitchedFrom(vmStore, res.Trace, c, interp.Options{Input: input, BuildTrace: true, Switch: plan}); r != nil {
		t.Fatal("tree fork accepted a VM store")
	}
}

// TestDifferentialForkBudgetAndCancel exercises VM forks under tight
// budgets and countdown cancellation against the tree-walker's full
// run: a fork either declines or stops exactly where the full run does.
func TestDifferentialForkBudgetAndCancel(t *testing.T) {
	c := interp.MustCompile(diffPrograms["switchable"])
	input := []int64{60}

	cks := NewStore(8)
	vmRun := Backend.Run(c, interp.Options{Input: input, BuildTrace: true, Checkpoints: cks})

	// Pick the last predicate instance: its fork has the longest prefix.
	preds := predicateInstances(vmRun.Trace)
	if len(preds) == 0 {
		t.Fatal("no predicate found")
	}
	last := preds[len(preds)-1]
	plan := switchAt(vmRun.Trace, last)
	resumedAt := cks.Nearest(last).steps
	forks := 0
	for _, budget := range []int{1, 5, vmRun.Steps / 2, vmRun.Steps, vmRun.Steps * 2} {
		opts := interp.Options{Input: input, BuildTrace: true, Switch: plan, StepBudget: budget}
		if fork := Backend.RunSwitchedFrom(cks, vmRun.Trace, c, opts); fork != nil {
			forks++
			compareFork(t, treeFull(c, opts), fork, resumedAt)
		}
	}
	if forks == 0 {
		t.Fatal("every budget was declined")
	}
	for _, polls := range []int{1, 2} {
		opts := interp.Options{Input: input, BuildTrace: true, Switch: plan, Ctx: &countdownCtx{left: polls}}
		fork := Backend.RunSwitchedFrom(cks, vmRun.Trace, c, opts)
		if fork == nil {
			t.Fatalf("polls %d: fork declined", polls)
		}
		if fork.Err != nil {
			compareCanceledFork(t, c, opts, fork)
			continue
		}
		opts.Ctx = nil
		compareFork(t, treeFull(c, opts), fork, resumedAt)
	}
}

func TestDisassemble(t *testing.T) {
	c := interp.MustCompile(diffPrograms["loops"])
	d1 := Disassemble(c)
	d2 := Disassemble(c)
	if d1 != d2 {
		t.Fatal("disassembly not deterministic")
	}
	for _, want := range []string{"globals:", "func main", "begin", "pred", "jump", "callmain", "halt", "endfn", "while (i < 10)"} {
		if !strings.Contains(d1, want) {
			t.Fatalf("disassembly missing %q:\n%s", want, d1)
		}
	}
}

// TestArtifactCaching: one Compiled lowers once.
func TestArtifactCaching(t *testing.T) {
	c := interp.MustCompile(`func main() { print(1); }`)
	p1 := programOf(c)
	p2 := programOf(c)
	if p1 != p2 {
		t.Fatal("bytecode not cached on Compiled")
	}
	if p1.NumInstrs() == 0 {
		t.Fatal("empty program")
	}
}

func TestErrorMessages(t *testing.T) {
	// Pin the exact error strings (positions included) against the tree
	// backend for each runtime error class.
	cases := []struct {
		name string
		src  string
		in   []int64
	}{
		{"div", diffPrograms["div_zero"], []int64{0}},
		{"bounds", diffPrograms["bounds_read"], []int64{5}},
		{"boundsneg", diffPrograms["bounds_write"], []int64{-1}},
		{"shift", diffPrograms["shift_range"], []int64{64}},
		{"assert", diffPrograms["assert_fail"], []int64{1}},
		{"frames", diffPrograms["frames"], nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := interp.MustCompile(tc.src)
			tree, vm := runBoth(t, c, interp.Options{Input: tc.in, BuildTrace: true})
			if tree.Err == nil {
				t.Fatal("expected an error")
			}
			compareErr(t, tree.Err, vm.Err)
			if fmt.Sprint(tree.Err) != fmt.Sprint(vm.Err) {
				t.Fatalf("message mismatch: %v vs %v", tree.Err, vm.Err)
			}
		})
	}
}
