// Package trisolve expresses the sparse triangular solve of the paper's
// Figure 7,
//
//	do i = 1, n
//	  y(i) = rhs(i)
//	  do j = low(i), high(i)
//	    y(i) = y(i) - a(j) * y(column(j))
//	  end do
//	end do
//
// as a preprocessed doacross loop and provides the executors compared in the
// paper's Table 1: the sequential solve, the plain preprocessed doacross, the
// doconsider-reordered preprocessed doacross, and (as an additional baseline)
// a level-scheduled wavefront solve.
//
// The dependencies between elements of y are determined by the column index
// array, which is only known at run time — exactly the situation the
// preprocessed doacross targets. Because the left-hand-side subscript is the
// loop index itself (a(i) = i), the loop also exercises the linear-subscript
// variant of Section 2.3.
package trisolve

import (
	"context"
	"fmt"

	"doacross/internal/core"
	"doacross/internal/depgraph"
	"doacross/internal/doconsider"
	"doacross/internal/sched"
	"doacross/internal/sparse"
)

// Loop builds the core.Loop implementing the forward substitution for the
// lower triangular matrix t with right-hand side rhs. The loop writes y[i] at
// iteration i and reads the columns of row i, all of which are earlier
// iterations (true dependencies).
func Loop(t *sparse.Triangular, rhs []float64) (*core.Loop, error) {
	if !t.Lower {
		return nil, fmt.Errorf("trisolve: forward substitution requires a lower triangular matrix")
	}
	if len(rhs) < t.N {
		return nil, fmt.Errorf("trisolve: rhs has %d entries for %d unknowns", len(rhs), t.N)
	}
	writes := identity(t.N)
	return &core.Loop{
		N:      t.N,
		Data:   t.N,
		Writes: func(i int) []int { return writes[i : i+1] },
		Reads:  func(i int) []int { return t.Col[t.RowPtr[i]:t.RowPtr[i+1]] },
		Body: func(i int, v *core.Values) {
			s := rhs[i]
			for k := t.RowPtr[i]; k < t.RowPtr[i+1]; k++ {
				s -= t.Val[k] * v.Load(t.Col[k])
			}
			if !t.UnitDiag {
				s /= t.Diag[i]
			}
			v.Store(i, s)
		},
	}, nil
}

// UpperLoop builds the core.Loop implementing the backward substitution for
// the upper triangular matrix t with right-hand side rhs. The original loop
// runs i = n-1 down to 0; the doacross iteration index is k = n-1-i so that
// dependencies still point from lower to higher iteration indices, which is
// what the preprocessed doacross requires.
func UpperLoop(t *sparse.Triangular, rhs []float64) (*core.Loop, error) {
	if t.Lower {
		return nil, fmt.Errorf("trisolve: backward substitution requires an upper triangular matrix")
	}
	if len(rhs) < t.N {
		return nil, fmt.Errorf("trisolve: rhs has %d entries for %d unknowns", len(rhs), t.N)
	}
	n := t.N
	writes := make([]int, n)
	for k := range writes {
		writes[k] = n - 1 - k
	}
	return &core.Loop{
		N:      n,
		Data:   n,
		Writes: func(k int) []int { return writes[k : k+1] },
		Reads:  func(k int) []int { i := n - 1 - k; return t.Col[t.RowPtr[i]:t.RowPtr[i+1]] },
		Body: func(k int, v *core.Values) {
			i := n - 1 - k
			s := rhs[i]
			for kk := t.RowPtr[i]; kk < t.RowPtr[i+1]; kk++ {
				s -= t.Val[kk] * v.Load(t.Col[kk])
			}
			if !t.UnitDiag {
				s /= t.Diag[i]
			}
			v.Store(i, s)
		},
	}, nil
}

// identity returns the slice [0, 1, ..., n-1], shared by the forward solve's
// write index.
func identity(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// Graph builds the true-dependency graph of the forward solve: iteration i
// depends on every column index appearing in row i.
func Graph(t *sparse.Triangular) *depgraph.Graph {
	return depgraph.BuildFromWriterIndex(t.N, identity(t.N), func(i int) []int {
		return t.Col[t.RowPtr[i]:t.RowPtr[i+1]]
	})
}

// UpperGraph builds the true-dependency graph of the backward solve in the
// doacross iteration numbering (iteration k solves row n-1-k).
func UpperGraph(t *sparse.Triangular) *depgraph.Graph {
	n := t.N
	write := make([]int, n)
	for k := range write {
		write[k] = n - 1 - k
	}
	return depgraph.BuildFromWriterIndex(n, write, func(k int) []int {
		i := n - 1 - k
		return t.Col[t.RowPtr[i]:t.RowPtr[i+1]]
	})
}

// Subscript returns the (trivial) linear left-hand-side subscript of the
// solve loop, a(i) = i, for use with the linear-subscript doacross variant.
func Subscript() core.LinearSubscript { return core.LinearSubscript{C: 1, D: 0} }

// SolveSequential solves T*y = rhs with the ordinary sequential substitution
// (the paper's Table 1 "Sequential Time" column).
func SolveSequential(t *sparse.Triangular, rhs []float64) []float64 {
	return t.Solve(rhs, nil)
}

// Solver binds a reusable doacross runtime to one triangular matrix. The
// whole premise of the preprocessed doacross is that one set of scratch
// state and processors is reused across successive executions of the same
// loop; an iterative driver (a Krylov method applies its ILU preconditioner
// — two triangular solves — once or twice per iteration) should therefore
// build the runtime, the worker pool and any reordering plan once and reuse
// them for every solve, which is what Solver provides. The one-shot
// SolveDoacross functions remain for single solves and experiments.
//
// A Solver is not safe for concurrent use. Close releases the worker pool.
type Solver struct {
	t    *sparse.Triangular
	rt   *core.Runtime
	loop *core.Loop
	rhs  []float64 // owned buffer the loop reads; refilled per Solve
	// mrhs is the owned element-major right-hand-side block of a SolveMulti
	// call: the value of (row i, block column c) at [i*nc + c], matching the
	// layout MultiValues hands the loop body. Sized lazily and reused across
	// blocks and calls.
	mrhs []float64
}

// NewSolver builds a reusable doacross solver for the triangular matrix t,
// choosing forward or backward substitution from t.Lower.
func NewSolver(t *sparse.Triangular, opts core.Options) (*Solver, error) {
	return newSolver(t, opts)
}

// NewReorderedSolver builds a reusable doacross solver whose iterations are
// rearranged once with the given doconsider strategy; every subsequent Solve
// reuses the plan. The wavefront executor derives its own level order, so
// combining it with a reordering is rejected here rather than failing on the
// first Solve.
func NewReorderedSolver(t *sparse.Triangular, strategy doconsider.Strategy, opts core.Options) (*Solver, error) {
	if opts.Executor == core.ExecWavefront || opts.Executor == core.ExecWavefrontDynamic {
		return nil, fmt.Errorf("trisolve: a reordered solver cannot use the %v executor (it derives its own level order)", opts.Executor)
	}
	var g *depgraph.Graph
	if t.Lower {
		g = Graph(t)
	} else {
		g = UpperGraph(t)
	}
	plan := doconsider.NewPlan(g, strategy)
	if err := doconsider.Validate(g, plan.Order); err != nil {
		return nil, err
	}
	opts.Order = plan.Order
	return newSolver(t, opts)
}

func newSolver(t *sparse.Triangular, opts core.Options) (*Solver, error) {
	s := &Solver{t: t, rhs: make([]float64, t.N)}
	var err error
	if t.Lower {
		s.loop, err = Loop(t, s.rhs)
	} else {
		s.loop, err = UpperLoop(t, s.rhs)
	}
	if err != nil {
		return nil, err
	}
	s.attachMultiBody()
	// Validation is cheap here: the forward solve hits Loop.Validate's
	// identity fast path, and the backward solve reuses the pooled writer
	// scratch, so building solvers in a loop stays allocation-light.
	if err := s.loop.Validate(); err != nil {
		return nil, err
	}
	s.rt = core.NewRuntime(t.N, opts)
	return s, nil
}

// attachMultiBody wires the blocked multi-RHS body onto the solver's loop —
// the same Loop value the scalar solves run, so both paths share one cached
// wavefront plan. The body is the substitution of Loop/UpperLoop applied to a
// whole row of columns per element: one dependency classification (and at
// most one wait) covers the row, then nc multiply-adds run over contiguous
// memory, which is what multiplies arithmetic intensity per level barrier.
func (s *Solver) attachMultiBody() {
	t := s.t
	if t.Lower {
		s.loop.BodyMulti = func(i int, v *core.MultiValues) {
			nc := v.Cols()
			out := v.Row(i)
			copy(out, s.mrhs[i*nc:(i+1)*nc])
			for k := t.RowPtr[i]; k < t.RowPtr[i+1]; k++ {
				a := t.Val[k]
				row := v.LoadRow(t.Col[k])
				for c := range out {
					out[c] -= a * row[c]
				}
			}
			if !t.UnitDiag {
				d := t.Diag[i]
				for c := range out {
					out[c] /= d
				}
			}
		}
		return
	}
	n := t.N
	s.loop.BodyMulti = func(k int, v *core.MultiValues) {
		i := n - 1 - k
		nc := v.Cols()
		out := v.Row(i)
		copy(out, s.mrhs[i*nc:(i+1)*nc])
		for kk := t.RowPtr[i]; kk < t.RowPtr[i+1]; kk++ {
			a := t.Val[kk]
			row := v.LoadRow(t.Col[kk])
			for c := range out {
				out[c] -= a * row[c]
			}
		}
		if !t.UnitDiag {
			d := t.Diag[i]
			for c := range out {
				out[c] /= d
			}
		}
	}
}

// N reports the number of unknowns of the solver's triangular system — the
// length a right-hand side must have. The serving front end (internal/serve)
// uses it to validate requests before they join a batch.
func (s *Solver) N() int { return s.t.N }

// Solve solves T*y = rhs with the preprocessed doacross, writing the
// solution into y (allocated when nil) and returning it with the execution
// report. rhs is copied into the solver's owned buffer, so the caller's
// slice is never retained.
func (s *Solver) Solve(rhs, y []float64) ([]float64, core.Report, error) {
	return s.SolveContext(context.Background(), rhs, y)
}

// SolveContext is Solve with cancellation: the underlying doacross run is
// aborted (and the solver left reusable) as soon as ctx is cancelled.
func (s *Solver) SolveContext(ctx context.Context, rhs, y []float64) ([]float64, core.Report, error) {
	if len(rhs) < s.t.N {
		return nil, core.Report{}, fmt.Errorf("trisolve: rhs has %d entries for %d unknowns", len(rhs), s.t.N)
	}
	if y == nil {
		y = make([]float64, s.t.N)
	}
	copy(s.rhs, rhs[:s.t.N])
	rep, err := s.rt.RunContext(ctx, s.loop, y)
	if err != nil {
		return nil, core.Report{}, err
	}
	return y, rep, nil
}

// SolveMulti solves T*Y[c] = B[c] for every column of B in blocked multi-RHS
// traversals: the dependency structure is walked once per block of up to
// core.MaxRHSBlock columns, so the per-solve fixed costs (level barriers,
// flag maintenance, classification) amortize across the block — the batching
// primitive the serving front end coalesces concurrent requests onto. Y is
// the solution columns, allocated (column-wise or entirely) when nil, and is
// returned with an execution report aggregating all blocks. Every B column is
// copied into the solver's owned block buffer, so the callers' slices are
// never retained — concurrent enqueuers can reuse their buffers as soon as
// their request completes.
func (s *Solver) SolveMulti(B, Y [][]float64) ([][]float64, core.Report, error) {
	return s.SolveMultiContext(context.Background(), B, Y)
}

// SolveMultiContext is SolveMulti with cancellation: the underlying run is
// aborted (and the solver left reusable) as soon as ctx is cancelled. The
// contents of Y are unspecified after a failed solve.
func (s *Solver) SolveMultiContext(ctx context.Context, B, Y [][]float64) ([][]float64, core.Report, error) {
	n := s.t.N
	if len(B) == 0 {
		return nil, core.Report{}, fmt.Errorf("trisolve: SolveMulti requires at least one right-hand side")
	}
	for c, b := range B {
		if len(b) < n {
			return nil, core.Report{}, fmt.Errorf("trisolve: rhs column %d has %d entries for %d unknowns", c, len(b), n)
		}
	}
	if Y == nil {
		Y = make([][]float64, len(B))
	}
	if len(Y) != len(B) {
		return nil, core.Report{}, fmt.Errorf("trisolve: %d solution columns for %d right-hand sides", len(Y), len(B))
	}
	for c := range Y {
		if Y[c] == nil {
			Y[c] = make([]float64, n)
		} else if len(Y[c]) < n {
			return nil, core.Report{}, fmt.Errorf("trisolve: solution column %d has %d entries for %d unknowns", c, len(Y[c]), n)
		}
	}
	var rep core.Report
	for base := 0; base < len(B); base += core.MaxRHSBlock {
		end := base + core.MaxRHSBlock
		if end > len(B) {
			end = len(B)
		}
		// Gather the block's right-hand sides element-major, matching the
		// row layout the multi body reads (blocking here keeps the solver's
		// block width equal to the traversal's, so v.Cols() indexes mrhs).
		nc := end - base
		if cap(s.mrhs) < n*nc {
			s.mrhs = make([]float64, n*nc)
		}
		s.mrhs = s.mrhs[:n*nc]
		for i := 0; i < n; i++ {
			row := s.mrhs[i*nc : (i+1)*nc]
			for c := range row {
				row[c] = B[base+c][i]
			}
		}
		blockRep, err := s.rt.RunMulti(ctx, s.loop, Y[base:end])
		if err != nil {
			return nil, core.Report{}, err
		}
		rep.PreTime += blockRep.PreTime
		rep.ExecTime += blockRep.ExecTime
		rep.PostTime += blockRep.PostTime
		rep.TotalTime += blockRep.TotalTime
		rep.TrueDeps += blockRep.TrueDeps
		rep.SelfDeps += blockRep.SelfDeps
		rep.AntiOrNone += blockRep.AntiOrNone
		rep.WaitPolls += blockRep.WaitPolls
		rep.Workers = blockRep.Workers
		rep.Iterations = blockRep.Iterations
		rep.Order = blockRep.Order
		rep.WaitPolicy = blockRep.WaitPolicy
		rep.SchedPolicy = blockRep.SchedPolicy
		rep.Executor = blockRep.Executor
		rep.Levels = blockRep.Levels
		rep.InspectCached = blockRep.InspectCached
		rep.InPlace = blockRep.InPlace
		rep.AutoCosts = blockRep.AutoCosts
		rep.PredictedDoacrossNs = blockRep.PredictedDoacrossNs
		rep.PredictedWavefrontNs = blockRep.PredictedWavefrontNs
		rep.PredictedDynamicNs = blockRep.PredictedDynamicNs
	}
	rep.NRHS = len(B)
	return Y, rep, nil
}

// UpdateRow replaces row i of the solver's triangular matrix (see
// sparse.Triangular.SetRow) and repairs the cached wavefront plan in place
// instead of discarding it: only the edited row's dependencies are
// re-inspected and only the levels its dirty cone actually perturbs are
// rebuilt, so a per-step sparsity change (mesh refinement, ILU fill-in)
// costs orders of magnitude less than the cold re-inspect a full
// invalidation would force. The loop's Reads closure slices the matrix's CSR
// arrays directly, so the splice is all the data change needed; the repair
// brings the cached dependency graph, level decomposition and schedule in
// line with it.
//
// The returned report says whether the plan was patched (Repaired) or the
// runtime fell back to a cold re-inspect on the next solve — both leave the
// solver consistent. On a SetRow error the matrix and plan are unchanged.
func (s *Solver) UpdateRow(i int, cols []int, vals []float64, diag float64) (core.RepairReport, error) {
	if err := s.t.SetRow(i, cols, vals, diag); err != nil {
		return core.RepairReport{}, err
	}
	k := i
	if !s.t.Lower {
		k = s.t.N - 1 - i
	}
	return s.rt.RepairPlans(s.loop, core.EditSet{Iters: []int{k}})
}

// InvalidatePlans evicts the solver's cached wavefront plans, forcing the
// next solve to re-inspect cold. It is the blunt alternative to UpdateRow's
// incremental repair, needed when the matrix was mutated directly (not
// through UpdateRow) or to measure the cold inspection cost.
func (s *Solver) InvalidatePlans() { s.rt.InvalidatePlans() }

// Trace returns the per-iteration trace of the most recent Solve when the
// solver was built with Options.CollectTrace, or nil otherwise.
func (s *Solver) Trace() *core.Trace { return s.rt.Trace() }

// Close releases the solver's worker pool. It is idempotent.
func (s *Solver) Close() { s.rt.Close() }

// UseDoacrossILU replaces both triangular substitutions of the ILU
// preconditioner with reusable preprocessed-doacross solvers (forward for L,
// backward for U), so an iterative Krylov solve reuses two persistent worker
// pools across every preconditioner application instead of building a
// runtime per substitution. It returns a release function that retires both
// pools; call it when the preconditioner is no longer needed.
func UseDoacrossILU(p *sparse.ILUPreconditioner, opts core.Options) (release func(), err error) {
	return wireILU(p, func(t *sparse.Triangular) (*Solver, error) {
		return NewSolver(t, opts)
	})
}

// UseDoacrossILUReordered is UseDoacrossILU with each factor's iterations
// rearranged once by the given doconsider strategy.
func UseDoacrossILUReordered(p *sparse.ILUPreconditioner, strategy doconsider.Strategy, opts core.Options) (release func(), err error) {
	return wireILU(p, func(t *sparse.Triangular) (*Solver, error) {
		return NewReorderedSolver(t, strategy, opts)
	})
}

func wireILU(p *sparse.ILUPreconditioner, mk func(*sparse.Triangular) (*Solver, error)) (func(), error) {
	lower, err := mk(p.L)
	if err != nil {
		return nil, err
	}
	upper, err := mk(p.U)
	if err != nil {
		lower.Close()
		return nil, err
	}
	// The substitution hooks cannot return an error; a Solve failure here
	// means the preconditioner's factors changed shape under the solver,
	// which is a programming error, so it panics.
	p.SolveLower = func(_ *sparse.Triangular, rhs, y []float64) []float64 {
		sol, _, e := lower.Solve(rhs, y)
		if e != nil {
			panic(fmt.Sprintf("trisolve: lower ILU substitution failed: %v", e))
		}
		return sol
	}
	p.SolveUpper = func(_ *sparse.Triangular, rhs, y []float64) []float64 {
		sol, _, e := upper.Solve(rhs, y)
		if e != nil {
			panic(fmt.Sprintf("trisolve: upper ILU substitution failed: %v", e))
		}
		return sol
	}
	return func() {
		lower.Close()
		upper.Close()
	}, nil
}

// SolveDoacross solves T*y = rhs with the plain preprocessed doacross (the
// Table 1 "Preprocessed Doacross" column) using the supplied runtime options.
// It returns the solution and the execution report.
func SolveDoacross(t *sparse.Triangular, rhs []float64, opts core.Options) ([]float64, core.Report, error) {
	l, err := Loop(t, rhs)
	if err != nil {
		return nil, core.Report{}, err
	}
	y := make([]float64, t.N)
	rt := core.NewRuntime(t.N, opts)
	defer rt.Close()
	rep, err := rt.Run(l, y)
	if err != nil {
		return nil, core.Report{}, err
	}
	return y, rep, nil
}

// SolveDoacrossReordered solves T*y = rhs with the preprocessed doacross
// after reordering the iterations with the given doconsider strategy (the
// Table 1 "Preprocessed Doacross Iterations Rearranged" column).
func SolveDoacrossReordered(t *sparse.Triangular, rhs []float64, strategy doconsider.Strategy, opts core.Options) ([]float64, core.Report, error) {
	l, err := Loop(t, rhs)
	if err != nil {
		return nil, core.Report{}, err
	}
	g := Graph(t)
	plan := doconsider.NewPlan(g, strategy)
	if err := doconsider.Validate(g, plan.Order); err != nil {
		return nil, core.Report{}, err
	}
	opts.Order = plan.Order
	y := make([]float64, t.N)
	rt := core.NewRuntime(t.N, opts)
	defer rt.Close()
	rep, err := rt.Run(l, y)
	if err != nil {
		return nil, core.Report{}, err
	}
	return y, rep, nil
}

// SolveUpperDoacross solves the upper triangular system T*y = rhs (backward
// substitution) with the preprocessed doacross. Together with SolveDoacross
// it lets both substitutions of an ILU preconditioner run in parallel.
func SolveUpperDoacross(t *sparse.Triangular, rhs []float64, opts core.Options) ([]float64, core.Report, error) {
	l, err := UpperLoop(t, rhs)
	if err != nil {
		return nil, core.Report{}, err
	}
	y := make([]float64, t.N)
	rt := core.NewRuntime(t.N, opts)
	defer rt.Close()
	rep, err := rt.Run(l, y)
	if err != nil {
		return nil, core.Report{}, err
	}
	return y, rep, nil
}

// SolveUpperDoacrossReordered solves the upper triangular system with the
// preprocessed doacross after a doconsider reordering of the (reversed)
// iteration space.
func SolveUpperDoacrossReordered(t *sparse.Triangular, rhs []float64, strategy doconsider.Strategy, opts core.Options) ([]float64, core.Report, error) {
	l, err := UpperLoop(t, rhs)
	if err != nil {
		return nil, core.Report{}, err
	}
	g := UpperGraph(t)
	plan := doconsider.NewPlan(g, strategy)
	if err := doconsider.Validate(g, plan.Order); err != nil {
		return nil, core.Report{}, err
	}
	opts.Order = plan.Order
	y := make([]float64, t.N)
	rt := core.NewRuntime(t.N, opts)
	defer rt.Close()
	rep, err := rt.Run(l, y)
	if err != nil {
		return nil, core.Report{}, err
	}
	return y, rep, nil
}

// SolveRenumbered solves T*y = rhs by renumbering the unknowns with the
// doconsider ordering (a symmetric permutation of the matrix and right-hand
// side) and running the preprocessed doacross in natural order on the
// renumbered system. It is the "transform the data" alternative to
// SolveDoacrossReordered's "transform the schedule": both produce identical
// results, and comparing them isolates whether the benefit of the doconsider
// comes from the iteration order alone.
func SolveRenumbered(t *sparse.Triangular, rhs []float64, strategy doconsider.Strategy, opts core.Options) ([]float64, core.Report, error) {
	g := Graph(t)
	plan := doconsider.NewPlan(g, strategy)
	if err := doconsider.Validate(g, plan.Order); err != nil {
		return nil, core.Report{}, err
	}
	perm, err := sparse.NewPermutationFromOrder(plan.Order)
	if err != nil {
		return nil, core.Report{}, err
	}
	pt, err := perm.PermuteTriangular(t)
	if err != nil {
		return nil, core.Report{}, err
	}
	prhs := perm.PermuteVector(rhs)
	py, rep, err := SolveDoacross(pt, prhs, opts)
	if err != nil {
		return nil, core.Report{}, err
	}
	rep.Order = "renumbered"
	return perm.UnpermuteVector(py), rep, nil
}

// SolveLinear solves T*y = rhs with the linear-subscript doacross variant
// (no inspector), exploiting a(i) = i.
func SolveLinear(t *sparse.Triangular, rhs []float64, opts core.Options) ([]float64, core.Report, error) {
	l, err := Loop(t, rhs)
	if err != nil {
		return nil, core.Report{}, err
	}
	y := make([]float64, t.N)
	rt := core.NewRuntime(t.N, opts)
	defer rt.Close()
	rep, err := rt.RunLinear(l, y, Subscript())
	if err != nil {
		return nil, core.Report{}, err
	}
	return y, rep, nil
}

// SolveLevelScheduled solves T*y = rhs by level scheduling: the dependency
// graph is decomposed into wavefronts and each wavefront is executed as a
// doall over the given number of workers, with a barrier between wavefronts.
// It is the standard alternative to the doacross for sparse triangular solves
// and serves as an additional baseline in the experiments.
func SolveLevelScheduled(t *sparse.Triangular, rhs []float64, workers int) ([]float64, int) {
	g := Graph(t)
	_, byLevel := g.Levels()
	y := make([]float64, t.N)
	pool := sched.NewPool(workers)
	defer pool.Close()
	for _, lvl := range byLevel {
		lvl := lvl
		pool.ParallelFor(len(lvl), func(k int) {
			i := lvl[k]
			s := rhs[i]
			for kk := t.RowPtr[i]; kk < t.RowPtr[i+1]; kk++ {
				s -= t.Val[kk] * y[t.Col[kk]]
			}
			if !t.UnitDiag {
				s /= t.Diag[i]
			}
			y[i] = s
		})
	}
	return y, len(byLevel)
}

// SolverKind identifies one of the triangular-solve executors, used by the
// experiment harness and the CLI.
type SolverKind int

const (
	Sequential SolverKind = iota
	Doacross
	DoacrossReordered
	LinearSubscript
	LevelScheduled
	// DoacrossWavefront runs the preprocessed runtime with its wavefront
	// executor: the inspected dependency graph executed level by level with
	// the decomposition and static schedule cached across solves. It differs
	// from LevelScheduled, which rebuilds the level sets on every call and
	// exists as the naive baseline.
	DoacrossWavefront
	// DoacrossWavefrontDynamic runs the preprocessed runtime with its
	// dynamic wavefront executor: the same cached decomposition as
	// DoacrossWavefront, but each level is self-scheduled, so rows of very
	// different occupancy inside one wavefront (the heavy-tailed factors)
	// no longer serialize the level behind one statically unlucky worker.
	DoacrossWavefrontDynamic
)

// String returns the executor's name as used in reports.
func (k SolverKind) String() string {
	switch k {
	case Sequential:
		return "sequential"
	case Doacross:
		return "doacross"
	case DoacrossReordered:
		return "doacross-reordered"
	case LinearSubscript:
		return "doacross-linear"
	case LevelScheduled:
		return "level-scheduled"
	case DoacrossWavefront:
		return "doacross-wavefront"
	case DoacrossWavefrontDynamic:
		return "doacross-wavefront-dynamic"
	default:
		return "unknown"
	}
}

// Solve dispatches to the executor identified by kind with the given options
// (ignored by Sequential and LevelScheduled, which only use opts.Workers).
func Solve(kind SolverKind, t *sparse.Triangular, rhs []float64, opts core.Options) ([]float64, core.Report, error) {
	switch kind {
	case Sequential:
		return SolveSequential(t, rhs), core.Report{Workers: 1, Iterations: t.N, Order: "sequential"}, nil
	case Doacross:
		return SolveDoacross(t, rhs, opts)
	case DoacrossReordered:
		return SolveDoacrossReordered(t, rhs, doconsider.Level, opts)
	case LinearSubscript:
		return SolveLinear(t, rhs, opts)
	case LevelScheduled:
		y, levels := SolveLevelScheduled(t, rhs, opts.Workers)
		return y, core.Report{Workers: opts.Workers, Iterations: t.N, Order: fmt.Sprintf("level-scheduled(%d levels)", levels)}, nil
	case DoacrossWavefront:
		opts.Executor = core.ExecWavefront
		return SolveDoacross(t, rhs, opts)
	case DoacrossWavefrontDynamic:
		opts.Executor = core.ExecWavefrontDynamic
		return SolveDoacross(t, rhs, opts)
	default:
		return nil, core.Report{}, fmt.Errorf("trisolve: unknown solver kind %d", int(kind))
	}
}
