package vm_test

import (
	"runtime"
	"testing"
	"time"

	"vprof/internal/compiler"
	"vprof/internal/lang"
	"vprof/internal/vm"
)

func compile(t *testing.T, src string) *compiler.Program {
	t.Helper()
	f, err := lang.Parse("t.vp", src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := compiler.Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCostScaleSpeedsBlocks(t *testing.T) {
	p := compile(t, `
func hot() { work(1000); return 0; }
func main() { hot(); hot(); }`)
	base := vm.New(p, vm.Config{})
	if err := base.Run(); err != nil {
		t.Fatal(err)
	}
	hot := p.FuncNamed("hot")
	scaled := vm.New(p, vm.Config{CostScale: func(pc int, cost int64) int64 {
		if pc >= hot.Entry && pc < hot.End {
			return cost / 2
		}
		return cost
	}})
	if err := scaled.Run(); err != nil {
		t.Fatal(err)
	}
	if scaled.Ticks() >= base.Ticks() {
		t.Fatalf("scaled %d >= base %d", scaled.Ticks(), base.Ticks())
	}
	// Roughly half the hot time should disappear.
	if scaled.Ticks() > base.Ticks()*3/4 {
		t.Errorf("speedup too small: %d vs %d", scaled.Ticks(), base.Ticks())
	}
	// Negative scale results clamp to zero rather than rewinding time.
	neg := vm.New(p, vm.Config{CostScale: func(int, int64) int64 { return -5 }})
	if err := neg.Run(); err != nil {
		t.Fatal(err)
	}
	if neg.Ticks() != 0 {
		t.Errorf("negative scaling produced %d ticks", neg.Ticks())
	}
}

func TestOnBranchObservesOutcomes(t *testing.T) {
	p := compile(t, `
func main() {
	var taken = 0;
	for (var i = 0; i < 10; i++) {
		if (i % 2 == 0) { taken++; }
	}
	out(taken);
}`)
	var taken, total int
	m := vm.New(p, vm.Config{OnBranch: func(pc int, t bool) {
		total++
		if t {
			taken++
		}
	}})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if total == 0 || taken == 0 || taken == total {
		t.Errorf("branch observation: taken=%d total=%d", taken, total)
	}
}

func TestOnReturnObservesValues(t *testing.T) {
	p := compile(t, `
func f(x) { return x * 2; }
func main() { f(3); f(5); }`)
	var got []int64
	fIdx := p.FuncNamed("f").Index
	m := vm.New(p, vm.Config{OnReturn: func(fi int, v vm.Value) {
		if fi == fIdx {
			got = append(got, v.I)
		}
	}})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 6 || got[1] != 10 {
		t.Errorf("returns = %v", got)
	}
}

func TestRunProcessesNestedSpawn(t *testing.T) {
	p := compile(t, `
func grandchild(n) { out(n); }
func child(n) {
	out(n);
	spawn("grandchild", n + 1);
}
func main() {
	spawn("child", 10);
	spawn("child", 20);
}`)
	procs := vm.RunProcesses(p, func(int) vm.Config { return vm.Config{} })
	if len(procs) != 5 {
		t.Fatalf("%d processes, want 5 (root, 2 children, 2 grandchildren)", len(procs))
	}
	// BFS order: children before grandchildren.
	if procs[1].VM.Outputs[0] != 10 || procs[2].VM.Outputs[0] != 20 {
		t.Errorf("children outputs: %v %v", procs[1].VM.Outputs, procs[2].VM.Outputs)
	}
	if procs[3].VM.Outputs[0] != 11 || procs[4].VM.Outputs[0] != 21 {
		t.Errorf("grandchildren outputs: %v %v", procs[3].VM.Outputs, procs[4].VM.Outputs)
	}
	if procs[3].ParentPid != 2 || procs[4].ParentPid != 3 {
		t.Errorf("grandchild parents: %d %d", procs[3].ParentPid, procs[4].ParentPid)
	}
}

func TestRunFuncArityMismatch(t *testing.T) {
	p := compile(t, `
func f(a, b) { return a + b; }
func main() { f(1, 2); }`)
	m := vm.New(p, vm.Config{})
	if err := m.RunFunc(p.FuncNamed("f").Index, []vm.Value{{I: 1}}, m.Globals()); err == nil {
		t.Fatal("expected arity error")
	}
}

func TestResultValue(t *testing.T) {
	p := compile(t, `
func f() { return 42; }
func main() { f(); }`)
	m := vm.New(p, vm.Config{})
	if err := m.RunFunc(p.FuncNamed("f").Index, nil, m.Globals()); err != nil {
		t.Fatal(err)
	}
	if m.Result().I != 42 {
		t.Errorf("result = %v", m.Result())
	}
}

func TestFrameOutOfRange(t *testing.T) {
	p := compile(t, `func main() { work(100); }`)
	checked := false
	m := vm.New(p, vm.Config{AlarmInterval: 10, OnAlarm: func(v *vm.VM) {
		if _, ok := v.Frame(v.Depth()); ok {
			// Depth() frames exist at indices 0..Depth()-1.
			panicIfReached := true
			_ = panicIfReached
		}
		if _, ok := v.Frame(99); ok {
			checked = true
		}
	}})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if checked {
		t.Error("Frame(99) reported ok")
	}
}

func TestSlotOutOfRangeReturnsZero(t *testing.T) {
	p := compile(t, `func main() { work(50); }`)
	sawZero := false
	m := vm.New(p, vm.Config{AlarmInterval: 7, OnAlarm: func(v *vm.VM) {
		fv, ok := v.Frame(0)
		if !ok {
			return
		}
		if got := fv.Slot(500); got == (vm.Value{}) {
			sawZero = true
		}
		if got := fv.Slot(-1); got != (vm.Value{}) {
			sawZero = false
		}
	}})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if !sawZero {
		t.Error("out-of-range slot read did not return zero Value")
	}
}

func TestGlobalsSnapshotIsolated(t *testing.T) {
	p := compile(t, `
var g = 1;
func main() { g = 7; }`)
	m := vm.New(p, vm.Config{})
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	snap := m.Globals()
	snap[0] = vm.Value{I: 99}
	if m.Global(0).I != 7 {
		t.Error("Globals() returned aliased memory")
	}
}

// markFuncs builds a StackScale mark vector for the named functions.
func markFuncs(p *compiler.Program, names ...string) []bool {
	marked := make([]bool, len(p.Funcs))
	for i, f := range p.Funcs {
		for _, n := range names {
			if f.Name == n {
				marked[i] = true
			}
		}
	}
	return marked
}

func TestScaleStackInclusive(t *testing.T) {
	// driver's own code is cheap, but its extent covers hot's work: an
	// inclusive speedup of driver must erase hot's cost, while a CostScale
	// over driver's PC range would not.
	src := `
func hot() { work(1000); return 0; }
func driver() { var i = 0; while (i < 4) { hot(); i = i + 1; } return 0; }
func main() { driver(); work(500); }`
	p := compile(t, src)
	base := vm.New(p, vm.Config{})
	if err := base.Run(); err != nil {
		t.Fatal(err)
	}
	scaled := vm.New(p, vm.Config{ScaleStack: &vm.StackScale{Marked: markFuncs(p, "driver"), Factor: 0}})
	if err := scaled.Run(); err != nil {
		t.Fatal(err)
	}
	// All 4x1000 hot ticks (plus driver's own) vanish; main's work(500)
	// and the entry code remain.
	if got := base.Ticks() - scaled.Ticks(); got < 4000 {
		t.Errorf("inclusive speedup removed only %d ticks", got)
	}
	if scaled.Ticks() < 500 {
		t.Errorf("unmarked code was scaled: %d ticks", scaled.Ticks())
	}

	// Exclusive scaling of the same (cheap) function barely moves the total.
	fn := p.FuncNamed("driver")
	excl := vm.New(p, vm.Config{CostScale: func(pc int, cost int64) int64 {
		if pc >= fn.Entry && pc < fn.End {
			return 0
		}
		return cost
	}})
	if err := excl.Run(); err != nil {
		t.Fatal(err)
	}
	if base.Ticks()-excl.Ticks() > 200 {
		t.Errorf("exclusive scaling of driver removed %d ticks, want < 200", base.Ticks()-excl.Ticks())
	}
}

func TestScaleStackRecursionAndBlocked(t *testing.T) {
	src := `
func rec(n) { if (n <= 0) { return 0; } work(100); block(100); return rec(n - 1); }
func main() { rec(5); block(300); }`
	p := compile(t, src)
	base := vm.New(p, vm.Config{})
	if err := base.Run(); err != nil {
		t.Fatal(err)
	}
	scaled := vm.New(p, vm.Config{ScaleStack: &vm.StackScale{Marked: markFuncs(p, "rec"), Factor: 0}})
	if err := scaled.Run(); err != nil {
		t.Fatal(err)
	}
	// Nested marked frames scale once (not multiplicatively) and fully
	// unwind: main's block(300) after rec returns is NOT scaled.
	if scaled.BlockedTicks() != 300 {
		t.Errorf("blocked ticks = %d, want exactly main's 300", scaled.BlockedTicks())
	}
	if base.BlockedTicks() != 300+5*100 {
		t.Errorf("base blocked ticks = %d", base.BlockedTicks())
	}
	if base.Ticks()-scaled.Ticks() < 500 {
		t.Errorf("recursion extent not scaled: base %d scaled %d", base.Ticks(), scaled.Ticks())
	}
}

func TestScaleStackChildProcess(t *testing.T) {
	// RunFunc entry frames are part of the marked extent when the spawned
	// function itself is marked.
	src := `
func child(n) { work(n); return 0; }
func main() { spawn("child", 2000); work(10); }`
	p := compile(t, src)
	mk := func(ss *vm.StackScale) int64 {
		var total int64
		for _, proc := range vm.RunProcesses(p, func(int) vm.Config { return vm.Config{ScaleStack: ss} }) {
			if proc.Err != nil {
				t.Fatal(proc.Err)
			}
			total += proc.VM.Ticks()
		}
		return total
	}
	base := mk(nil)
	scaled := mk(&vm.StackScale{Marked: markFuncs(p, "child"), Factor: 0})
	if base-scaled < 2000 {
		t.Errorf("child extent not scaled: base %d scaled %d", base, scaled)
	}
}

// TestRunDoesNotPinProgram pins that executing a program keeps nothing
// reachable from it after the run: its register lowering belongs to the
// Program, so a dropped Program is collected with it.
//
// The finalizer sits on main's FuncInfo rather than on the Program: the
// Program and its lowering form a cycle (RegProgram.Prog), and the runtime
// never finalizes an object reachable from itself. The FuncInfo is
// reachable only through the Program, so it is finalized only once the
// Program is unreachable.
func TestRunDoesNotPinProgram(t *testing.T) {
	collected := make(chan struct{})
	func() {
		p := compile(t, `
func fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
func main() { out(fib(10)); }`)
		m := vm.New(p, vm.Config{})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		m.Recycle()
		runtime.SetFinalizer(p.Funcs[p.MainIndex], func(*compiler.FuncInfo) { close(collected) })
	}()
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
	t.Fatal("program still reachable after its run was dropped")
}
