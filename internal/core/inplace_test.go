package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"doacross/internal/flags"
	"doacross/internal/sched"
	"doacross/internal/sparse"
)

// inPlaceDAGLoop builds a random-DAG loop like randomDAGLoop, with a
// BodyMulti computing the same recurrence per column. With anti false every
// read of an element written by a later iteration is dropped, so the loop has
// no anti-dependence and its wavefront plan runs in place; some iterations
// also read their own write target before storing it (a self dependence).
// The arithmetic is non-commutative in its operands, so any read that
// observes the wrong value changes the bits of the result.
func inPlaceDAGLoop(rng *rand.Rand, n int, anti bool) (*Loop, []float64) {
	dataLen := 2 * n
	perm := rng.Perm(dataLen)[:n]
	writer := make([]int, dataLen)
	for e := range writer {
		writer[e] = -1
	}
	for i, e := range perm {
		writer[e] = i
	}
	reads := make([][]int, n)
	for i := range reads {
		for k := rng.Intn(5); k > 0; k-- {
			e := rng.Intn(dataLen)
			if !anti && writer[e] > i {
				continue
			}
			reads[i] = append(reads[i], e)
		}
		if rng.Intn(4) == 0 {
			reads[i] = append(reads[i], perm[i])
		}
	}
	l := &Loop{
		N:      n,
		Data:   dataLen,
		Writes: func(i int) []int { return perm[i : i+1] },
		Reads:  func(i int) []int { return reads[i] },
		Body: func(i int, v *Values) {
			s := float64(i) + 1
			for k, e := range reads[i] {
				s = 0.75*s + float64(k+1)*v.Load(e)
			}
			v.Store(perm[i], s)
		},
		BodyMulti: func(i int, v *MultiValues) {
			out := v.Row(perm[i])
			for c := 0; c < v.Cols(); c++ {
				s := float64(i) + 1
				for k, e := range reads[i] {
					s = 0.75*s + float64(k+1)*v.LoadRow(e)[c]
				}
				out[c] = s
			}
		},
	}
	y := make([]float64, dataLen)
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	return l, y
}

// hasAnti reports whether any declared read of l observes an element a later
// iteration writes — the condition that keeps a plan on the renamed path.
func hasAnti(l *Loop) bool {
	writer := make([]int, l.Data)
	for e := range writer {
		writer[e] = -1
	}
	for i := 0; i < l.N; i++ {
		for _, e := range l.Writes(i) {
			writer[e] = i
		}
	}
	for i := 0; i < l.N; i++ {
		for _, e := range l.Reads(i) {
			if writer[e] > i {
				return true
			}
		}
	}
	return false
}

func copyColumns(ys [][]float64) [][]float64 {
	out := make([][]float64, len(ys))
	for c := range ys {
		out[c] = append([]float64(nil), ys[c]...)
	}
	return out
}

// TestPropertyInPlaceEquivalentToBuffered is the acceptance property of
// in-place execution: on random-DAG loops with and without
// anti-dependences, under the static and the dynamic wavefront, scalar and
// RunMulti, the wavefront runtime and a doacross runtime (which always runs
// renamed through ynew) produce bit-identical results equal to the sequential
// loop, the wavefront plan runs in place exactly when it has no
// anti-dependence, and the wavefront run's counters — plan-derived when in
// place — equal the doacross's per-Load counts (the scalar body Loads each
// declared read once).
func TestPropertyInPlaceEquivalentToBuffered(t *testing.T) {
	f := func(seed int64, workerBits, execBit, antiBit, policyBits, nrhsBits uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(130)
		l, y := inPlaceDAGLoop(rng, n, antiBit%2 == 0)
		if err := l.Validate(); err != nil {
			t.Logf("invalid loop: %v", err)
			return false
		}
		wantInPlace := !hasAnti(l)
		exec := []ExecutorKind{ExecWavefront, ExecWavefrontDynamic}[execBit%2]
		opts := Options{
			Workers:  int(workerBits)%4 + 1,
			Policy:   sched.Policy(int(policyBits) % 3),
			Chunk:    1 + rng.Intn(8),
			Executor: exec,
		}
		direct := NewRuntime(l.Data, opts)
		defer direct.Close()
		// Up to four doacross workers may outnumber the cores, so their
		// waits yield rather than spin.
		opts.Executor = ExecDoacross
		opts.WaitStrategy = flags.WaitSpinYield
		renamed := NewRuntime(l.Data, opts)
		defer renamed.Close()

		seq := append([]float64(nil), y...)
		mustRunSequential(t, l, seq)
		for run := 0; run < 2; run++ {
			a, b := append([]float64(nil), y...), append([]float64(nil), y...)
			ra, err := direct.Run(l, a)
			if err != nil {
				t.Logf("in-place run: %v", err)
				return false
			}
			rb, err := renamed.Run(l, b)
			if err != nil {
				t.Logf("renamed run: %v", err)
				return false
			}
			if ra.InPlace != wantInPlace || rb.InPlace {
				t.Logf("%v run %d: InPlace %v/%v, want %v/false", exec, run, ra.InPlace, rb.InPlace, wantInPlace)
				return false
			}
			if sparse.VecMaxDiff(seq, a) != 0 || sparse.VecMaxDiff(seq, b) != 0 {
				t.Logf("%v run %d: result differs from sequential (in place %v)", exec, run, ra.InPlace)
				return false
			}
			if ra.TrueDeps != rb.TrueDeps || ra.SelfDeps != rb.SelfDeps || ra.AntiOrNone != rb.AntiOrNone {
				t.Logf("%v run %d: counters true/self/anti %d/%d/%d, renamed %d/%d/%d", exec, run,
					ra.TrueDeps, ra.SelfDeps, ra.AntiOrNone, rb.TrueDeps, rb.SelfDeps, rb.AntiOrNone)
				return false
			}
		}

		nrhs := 1 + int(nrhsBits)%9
		ys := randomColumns(rng, y, nrhs)
		want := copyColumns(ys)
		if err := RunSequentialMulti(l, want); err != nil {
			t.Logf("RunSequentialMulti: %v", err)
			return false
		}
		a, b := copyColumns(ys), copyColumns(ys)
		ra, err := direct.RunMulti(context.Background(), l, a)
		if err != nil {
			t.Logf("in-place multi run: %v", err)
			return false
		}
		if _, err := renamed.RunMulti(context.Background(), l, b); err != nil {
			t.Logf("renamed multi run: %v", err)
			return false
		}
		if ra.InPlace != wantInPlace {
			t.Logf("multi InPlace %v, want %v", ra.InPlace, wantInPlace)
			return false
		}
		for c := range ys {
			if sparse.VecMaxDiff(want[c], a[c]) != 0 || sparse.VecMaxDiff(want[c], b[c]) != 0 {
				t.Logf("%v multi column %d differs from sequential (in place %v)", exec, c, ra.InPlace)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestInPlaceAbortMidLevel aborts in-place wavefront runs — context
// cancellation, body error and body panic at a random iteration, scalar and
// RunMulti — and checks that each run fails with its error, and that the same
// runtime then runs in place again with results bit-identical to the
// sequential loop.
func TestInPlaceAbortMidLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 8; trial++ {
		l, y := inPlaceDAGLoop(rng, 120+rng.Intn(120), false)
		seq := append([]float64(nil), y...)
		mustRunSequential(t, l, seq)
		ys := randomColumns(rng, y, 3)
		seqMulti := copyColumns(ys)
		if err := RunSequentialMulti(l, seqMulti); err != nil {
			t.Fatal(err)
		}
		trigger := rng.Intn(l.N)

		for _, exec := range []ExecutorKind{ExecWavefront, ExecWavefrontDynamic} {
			rt := NewRuntime(l.Data, Options{Workers: 3, Executor: exec})

			ctx, cancel := context.WithCancel(context.Background())
			cancelling := *l
			cancelling.Body = func(i int, v *Values) {
				if i == trigger {
					cancel()
					runtime.Gosched()
				}
				l.Body(i, v)
			}
			if _, err := rt.RunContext(ctx, &cancelling, append([]float64(nil), y...)); err == nil {
				t.Fatalf("trial %d %v: cancelled run returned nil error", trial, exec)
			}
			cancel()

			failing := *l
			failing.Body = nil
			failing.BodyErr = func(i int, v *Values) error {
				if i == trigger {
					return fmt.Errorf("iteration %d failed", i)
				}
				l.Body(i, v)
				return nil
			}
			if _, err := rt.Run(&failing, append([]float64(nil), y...)); err == nil || !strings.Contains(err.Error(), "failed") {
				t.Fatalf("trial %d %v: body error not propagated: %v", trial, exec, err)
			}

			panicking := *l
			panicking.Body = func(i int, v *Values) {
				if i == trigger {
					panic("boom")
				}
				l.Body(i, v)
			}
			if _, err := rt.Run(&panicking, append([]float64(nil), y...)); err == nil || !strings.Contains(err.Error(), "boom") {
				t.Fatalf("trial %d %v: body panic not recovered: %v", trial, exec, err)
			}

			multiPanicking := *l
			multiPanicking.BodyMulti = func(i int, v *MultiValues) {
				if i == trigger {
					panic("multi boom")
				}
				l.BodyMulti(i, v)
			}
			if _, err := rt.RunMulti(context.Background(), &multiPanicking, copyColumns(ys)); err == nil || !strings.Contains(err.Error(), "multi boom") {
				t.Fatalf("trial %d %v: multi body panic not recovered: %v", trial, exec, err)
			}

			par := append([]float64(nil), y...)
			rep, err := rt.Run(l, par)
			if err != nil {
				t.Fatalf("trial %d %v: clean run after aborts: %v", trial, exec, err)
			}
			if !rep.InPlace {
				t.Fatalf("trial %d %v: clean run after aborts did not run in place", trial, exec)
			}
			if d := sparse.VecMaxDiff(seq, par); d != 0 {
				t.Fatalf("trial %d %v: post-abort run mismatch %v", trial, exec, d)
			}
			mpar := copyColumns(ys)
			if rep, err = rt.RunMulti(context.Background(), l, mpar); err != nil || !rep.InPlace {
				t.Fatalf("trial %d %v: clean multi run after aborts: in place %v, %v", trial, exec, rep.InPlace, err)
			}
			for c := range ys {
				if d := sparse.VecMaxDiff(seqMulti[c], mpar[c]); d != 0 {
					t.Fatalf("trial %d %v: post-abort multi column %d mismatch %v", trial, exec, c, d)
				}
			}
			if !rt.ScratchClean() {
				t.Fatalf("trial %d %v: scratch dirty after aborts", trial, exec)
			}
			rt.Close()
		}
	}
}

// TestInPlaceOnlyForWavefront pins which runs take the in-place path: the
// wavefront executors on anti-dependence-free plans, never the doacross
// (which keeps the paper's renaming), never a plan with an anti-dependence.
func TestInPlaceOnlyForWavefront(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	clean, y := inPlaceDAGLoop(rng, 64, false)
	anti := figure1Loop([]int{0, 1}, []int{1, 0}, 2) // iteration 0 reads element 1, written later
	for _, c := range []struct {
		exec ExecutorKind
		l    *Loop
		want bool
	}{
		{ExecDoacross, clean, false},
		{ExecWavefront, clean, true},
		{ExecWavefrontDynamic, clean, true},
		{ExecWavefront, anti, false},
		{ExecWavefrontDynamic, anti, false},
	} {
		rt := NewRuntime(c.l.Data, Options{Workers: 2, Executor: c.exec})
		data := append([]float64(nil), y[:c.l.Data]...)
		seq := append([]float64(nil), data...)
		mustRunSequential(t, c.l, seq)
		rep, err := rt.Run(c.l, data)
		rt.Close()
		if err != nil {
			t.Fatal(err)
		}
		if rep.InPlace != c.want {
			t.Errorf("%v on N=%d: InPlace %v, want %v", c.exec, c.l.N, rep.InPlace, c.want)
		}
		if sparse.VecMaxDiff(seq, data) != 0 {
			t.Errorf("%v on N=%d: result differs from sequential", c.exec, c.l.N)
		}
	}
}

// TestInPlaceAccessCheck checks the sanitizer on the in-place path: a checked
// run of a clean loop still runs in place, and a body that calls LoadOld (or
// LoadOldRow) on an element the loop writes is reported as an AccessReadOld
// violation — under the doacross and both wavefronts, since the contract does
// not depend on the executor.
func TestInPlaceAccessCheck(t *testing.T) {
	chain := func(old bool) *Loop {
		l := &Loop{
			N: 8, Data: 9,
			Writes: func(i int) []int { return []int{i} },
			Reads:  func(i int) []int { return []int{i + 1} },
			Body: func(i int, v *Values) {
				x := v.LoadOld(8) // element 8 is never written: always legal
				if old && i == 5 {
					x += v.LoadOld(i - 1) // written by iteration 4
				}
				v.Store(i, x+v.Load(i+1))
			},
			BodyMulti: func(i int, v *MultiValues) {
				x := v.LoadOldRow(8)[0]
				if old && i == 5 {
					x += v.LoadOldRow(i - 1)[0]
				}
				v.Row(i)[0] = x + v.LoadRow(i + 1)[0]
			},
		}
		return l
	}
	for _, exec := range []ExecutorKind{ExecDoacross, ExecWavefront, ExecWavefrontDynamic} {
		rt := NewRuntime(9, Options{Workers: 2, Executor: exec, AccessCheck: true})
		rep, err := rt.Run(chain(false), make([]float64, 9))
		if err != nil {
			t.Fatalf("%v: clean checked run: %v", exec, err)
		}
		// The chain reads only elements written by later iterations, so it
		// has anti-dependences everywhere; the in-place case is covered by
		// the reversed loop below.
		if rep.InPlace {
			t.Fatalf("%v: anti-dependent chain ran in place", exec)
		}
		for _, multi := range []bool{false, true} {
			var err error
			if multi {
				_, err = rt.RunMulti(context.Background(), chain(true), [][]float64{make([]float64, 9)})
			} else {
				_, err = rt.Run(chain(true), make([]float64, 9))
			}
			var ae *AccessError
			if !errors.As(err, &ae) || ae.Op != AccessReadOld || ae.Iteration != 5 || ae.Element != 4 {
				t.Fatalf("%v multi=%v: LoadOld of a written element not reported: %v", exec, multi, err)
			}
		}
		rt.Close()
	}

	// A true-dependence chain (iteration i reads i-1): no anti-dependence,
	// so checked wavefront runs must take the in-place path and still catch
	// LoadOld of a written element.
	forward := func(old bool) *Loop {
		return &Loop{
			N: 8, Data: 9,
			Writes: func(i int) []int { return []int{i} },
			Reads: func(i int) []int {
				if i == 0 {
					return []int{8}
				}
				return []int{i - 1}
			},
			Body: func(i int, v *Values) {
				x := v.LoadOld(8)
				if i > 0 {
					x += v.Load(i - 1)
				}
				if old && i == 6 {
					x += v.LoadOld(2)
				}
				v.Store(i, x)
			},
			BodyMulti: func(i int, v *MultiValues) {
				x := v.LoadOldRow(8)[0]
				if i > 0 {
					x += v.LoadRow(i - 1)[0]
				}
				if old && i == 6 {
					x += v.LoadOldRow(2)[0]
				}
				v.Row(i)[0] = x
			},
		}
	}
	for _, exec := range []ExecutorKind{ExecWavefront, ExecWavefrontDynamic} {
		rt := NewRuntime(9, Options{Workers: 2, Executor: exec, AccessCheck: true})
		y := make([]float64, 9)
		y[8] = 1
		seq := append([]float64(nil), y...)
		mustRunSequential(t, forward(false), seq)
		rep, err := rt.Run(forward(false), y)
		if err != nil {
			t.Fatalf("%v: clean checked run: %v", exec, err)
		}
		if !rep.InPlace {
			t.Fatalf("%v: checked run of an anti-free loop fell back to the renamed path", exec)
		}
		if sparse.VecMaxDiff(seq, y) != 0 {
			t.Fatalf("%v: checked in-place run differs from sequential", exec)
		}
		rep, err = rt.RunMulti(context.Background(), forward(false), [][]float64{make([]float64, 9)})
		if err != nil || !rep.InPlace {
			t.Fatalf("%v: clean checked multi run: in place %v, %v", exec, rep.InPlace, err)
		}
		for _, multi := range []bool{false, true} {
			var err error
			if multi {
				_, err = rt.RunMulti(context.Background(), forward(true), [][]float64{make([]float64, 9)})
			} else {
				_, err = rt.Run(forward(true), make([]float64, 9))
			}
			var ae *AccessError
			if !errors.As(err, &ae) || ae.Op != AccessReadOld || ae.Iteration != 6 || ae.Element != 2 {
				t.Fatalf("%v multi=%v: in-place LoadOld of a written element not reported: %v", exec, multi, err)
			}
			if !strings.Contains(err.Error(), "LoadOld") {
				t.Fatalf("%v: error does not name LoadOld: %v", exec, err)
			}
		}
		rt.Close()
	}
	if AccessReadOld.String() != "LoadOld" {
		t.Errorf("AccessReadOld.String() = %q", AccessReadOld.String())
	}
}

// TestRepairWriteMoveDisablesInPlace covers the edits RepairPlans cannot
// re-classify exactly, because a reader whose predecessors did not change
// need not be in the edit set. First, an element gains its first writer, and
// an earlier reader of it now has an anti-dependence: the repaired plan must
// run renamed, like a cold rebuild of the edited pattern, and match the
// sequential loop. Second, an element is retired from a plan with an
// anti-dependence, and its earlier reader's anti-dependence is gone: the
// repaired plan stays renamed (a cold rebuild would run in place) and matches
// the sequential loop, until InvalidatePlans forces that cold rebuild.
func TestRepairWriteMoveDisablesInPlace(t *testing.T) {
	target := 2 // iteration 2's write target; element 3 starts unwritten
	l := &Loop{
		N: 3, Data: 4,
		Writes: func(i int) []int {
			if i == 2 {
				return []int{target}
			}
			return []int{i}
		},
		Reads: func(i int) []int {
			if i == 0 {
				return []int{3}
			}
			return nil
		},
		Body: func(i int, v *Values) {
			switch i {
			case 0:
				v.Store(0, v.Load(3)+1)
			case 1:
				v.Store(1, 10)
			default:
				v.Store(target, 100)
			}
		},
	}
	for _, exec := range []ExecutorKind{ExecWavefront, ExecWavefrontDynamic} {
		rt := NewRuntime(4, Options{Workers: 3, Executor: exec})
		target = 2
		y := []float64{0, 0, 0, 7}
		rep, err := rt.Run(l, y)
		if err != nil || !rep.InPlace {
			t.Fatalf("%v: initial run in place %v, %v", exec, rep.InPlace, err)
		}
		target = 3
		rr, err := rt.RepairPlans(l, EditSet{Iters: []int{2}, RetiredElems: []int{2}})
		if err != nil || !rr.Repaired {
			t.Fatalf("%v: repair %+v, %v", exec, rr, err)
		}
		cold := NewRuntime(4, Options{Workers: 3, Executor: exec})
		coldRep, err := cold.Run(l, []float64{0, 0, 0, 7})
		cold.Close()
		if err != nil || coldRep.InPlace {
			t.Fatalf("%v: cold rebuild in place %v, %v", exec, coldRep.InPlace, err)
		}
		for run := 0; run < 3; run++ {
			y := []float64{0, 0, 0, 7}
			seq := append([]float64(nil), y...)
			mustRunSequential(t, l, seq)
			rep, err := rt.Run(l, y)
			if err != nil {
				t.Fatal(err)
			}
			if rep.InPlace {
				t.Fatalf("%v: repaired plan with a new anti-dependence ran in place", exec)
			}
			if sparse.VecMaxDiff(seq, y) != 0 {
				t.Fatalf("%v: repaired run %v, sequential %v", exec, y, seq)
			}
		}
		rt.Close()
	}

	// Iteration 2 writes elements 2 and 3 and iteration 0 reads element 3
	// (an anti-dependence); the edit drops element 3 from iteration 2's
	// writes, leaving iteration 0 a plain read that is not in the edit set.
	wide := true
	retiring := &Loop{
		N: 3, Data: 4,
		Writes: func(i int) []int {
			if i == 2 && wide {
				return []int{2, 3}
			}
			return []int{i}
		},
		Reads: func(i int) []int {
			if i == 0 {
				return []int{3}
			}
			return nil
		},
		Body: func(i int, v *Values) {
			switch i {
			case 0:
				v.Store(0, v.Load(3)+1)
			case 2:
				v.Store(2, 100)
				if wide {
					v.Store(3, 200)
				}
			default:
				v.Store(i, 10)
			}
		},
	}
	for _, exec := range []ExecutorKind{ExecWavefront, ExecWavefrontDynamic} {
		rt := NewRuntime(4, Options{Workers: 3, Executor: exec})
		wide = true
		rep, err := rt.Run(retiring, []float64{0, 0, 0, 7})
		if err != nil || rep.InPlace {
			t.Fatalf("%v: initial run with an anti-dependence in place %v, %v", exec, rep.InPlace, err)
		}
		wide = false
		rr, err := rt.RepairPlans(retiring, EditSet{Iters: []int{2}, RetiredElems: []int{3}})
		if err != nil || !rr.Repaired {
			t.Fatalf("%v: repair %+v, %v", exec, rr, err)
		}
		for run := 0; run < 4; run++ {
			if run == 2 {
				rt.InvalidatePlans()
			}
			y := []float64{0, 0, 0, 7}
			seq := append([]float64(nil), y...)
			mustRunSequential(t, retiring, seq)
			rep, err := rt.Run(retiring, y)
			if err != nil {
				t.Fatal(err)
			}
			if want := run >= 2; rep.InPlace != want {
				t.Fatalf("%v run %d: in place %v, want %v (cold rebuild from run 2)", exec, run, rep.InPlace, want)
			}
			if sparse.VecMaxDiff(seq, y) != 0 {
				t.Fatalf("%v run %d: %v, sequential %v", exec, run, y, seq)
			}
		}
		rt.Close()
	}
}

// TestWorkerSlotsOnPrivateLines pins the per-worker state layout: every slot
// is a whole number of cache lines, and no cache line holds state of two
// workers, whatever the alignment of the slice the slots live in.
func TestWorkerSlotsOnPrivateLines(t *testing.T) {
	if size := unsafe.Sizeof(workerSlot{}); size%cacheLine != 0 {
		t.Fatalf("workerSlot is %d bytes, not a multiple of %d", size, cacheLine)
	}
	state := unsafe.Sizeof(workerState{})
	if pad := unsafe.Sizeof(workerSlot{}) - state; pad < cacheLine {
		t.Fatalf("workerSlot pads its %d-byte state by %d bytes, less than a line", state, pad)
	}
	for _, workers := range []int{2, 3, 8} {
		rt := NewRuntime(16, Options{Workers: workers})
		lines := map[uintptr]int{}
		for w := range rt.slots {
			lo := uintptr(unsafe.Pointer(&rt.slots[w].workerState))
			for line := lo / cacheLine; line <= (lo+state-1)/cacheLine; line++ {
				if other, ok := lines[line]; ok && other != w {
					t.Fatalf("workers %d and %d share cache line %#x", other, w, line*cacheLine)
				}
				lines[line] = w
			}
		}
		rt.Close()
	}
}

// TestInPlaceTraceCountsTrueDeps checks that a traced in-place run records
// each iteration's true dependencies from the plan, as a renamed run counts
// them per Load.
func TestInPlaceTraceCountsTrueDeps(t *testing.T) {
	n := 40
	l := tracedChainLoop(n)
	l.Reads = func(i int) []int {
		if i == 0 {
			return nil
		}
		return []int{i - 1}
	}
	rt := NewRuntime(n, Options{Workers: 2, Executor: ExecWavefront, CollectTrace: true, WaitStrategy: flags.WaitSpinYield})
	defer rt.Close()
	rep, err := rt.Run(l, make([]float64, n))
	if err != nil || !rep.InPlace {
		t.Fatalf("in place %v, %v", rep.InPlace, err)
	}
	deps := 0
	for _, it := range rt.Trace().Iterations {
		deps += it.TrueDeps
	}
	if deps != n-1 || rep.TrueDeps != int64(n-1) {
		t.Fatalf("trace records %d true dependencies, report %d, want %d", deps, rep.TrueDeps, n-1)
	}
}
