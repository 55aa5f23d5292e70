package trisolve

import (
	"testing"

	"doacross/internal/core"
	"doacross/internal/flags"
	"doacross/internal/sparse"
	"doacross/internal/stencil"
)

// TestInPlaceCountersMatchRenamed checks, on every committed triangular
// system (the lower and upper ILU(0) factors of each stencil problem), that
// the wavefront executors solve in place and that their plan-derived
// dependency counters equal the per-Load counts of the renamed doacross run,
// for a single right-hand side and for a block, with identical solutions.
func TestInPlaceCountersMatchRenamed(t *testing.T) {
	for _, p := range stencil.Problems {
		lower, upper, err := stencil.LowerFactor(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range []*sparse.Triangular{lower, upper} {
			rhs := stencil.RHS(tr.N, 3)
			block := [][]float64{stencil.RHS(tr.N, 4), stencil.RHS(tr.N, 5)}
			want := SolveSequential(tr, rhs)
			solve := func(exec core.ExecutorKind) (core.Report, core.Report) {
				s, err := NewSolver(tr, core.Options{Workers: 2, WaitStrategy: flags.WaitSpinYield, Executor: exec})
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				y, rep, err := s.Solve(rhs, nil)
				if err != nil {
					t.Fatal(err)
				}
				if sparse.VecMaxDiff(want, y) != 0 {
					t.Fatalf("%v lower=%v %v: solution differs from sequential", p, tr.Lower, exec)
				}
				_, multi, err := s.SolveMulti(block, nil)
				if err != nil {
					t.Fatal(err)
				}
				return rep, multi
			}
			ref, refMulti := solve(core.ExecDoacross)
			if ref.InPlace || refMulti.InPlace {
				t.Fatalf("%v lower=%v: the doacross ran in place", p, tr.Lower)
			}
			for _, exec := range []core.ExecutorKind{core.ExecWavefront, core.ExecWavefrontDynamic} {
				rep, multi := solve(exec)
				for _, c := range []struct {
					name     string
					got, ref core.Report
				}{{"scalar", rep, ref}, {"multi", multi, refMulti}} {
					if !c.got.InPlace {
						t.Errorf("%v lower=%v %v %s: triangular solve did not run in place", p, tr.Lower, exec, c.name)
					}
					if c.got.TrueDeps != c.ref.TrueDeps || c.got.SelfDeps != c.ref.SelfDeps || c.got.AntiOrNone != c.ref.AntiOrNone {
						t.Errorf("%v lower=%v %v %s: counters true/self/anti %d/%d/%d, renamed %d/%d/%d",
							p, tr.Lower, exec, c.name, c.got.TrueDeps, c.got.SelfDeps, c.got.AntiOrNone,
							c.ref.TrueDeps, c.ref.SelfDeps, c.ref.AntiOrNone)
					}
				}
			}
		}
	}
}
