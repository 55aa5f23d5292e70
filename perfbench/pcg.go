package main

import (
	"fmt"
	"time"

	"doacross"
	"doacross/internal/krylov"
	"doacross/internal/sparse"
	"doacross/internal/stencil"
)

// pcg-7pt: one caller runs ILU(0)-preconditioned CG on the 7-PT operator,
// both substitutions on doacross solvers. The inspector is paid once and
// reused on every solve — the use the paper targets.
var pcgWorkload = workload{
	name:     "pcg-7pt",
	limit:    250 * time.Millisecond,
	segments: 5,
	prepare:  preparePCG,
}

const (
	pcgRHS = 4 // distinct right-hand sides, cycled through
	cgTol  = 1e-8
)

type pcgBench struct {
	base
	a        *sparse.CSR
	l        *doacross.Triangular // the ILU(0) lower factor, for the probes
	in       pcgInput
	refX     [][]float64
	refIters []int
}

// pcgInput is the seeded input of pcg-7pt.
type pcgInput struct{ B [][]float64 }

func pcgInputs(seed int64, n int) pcgInput {
	return pcgInput{B: vectors(rng(seed, 1), pcgRHS, n)}
}

func preparePCG(seed int64, workers int) (bench, error) {
	a, err := stencil.SevenPointGrid(20, 20, 20)
	if err != nil {
		return nil, err
	}
	b := &pcgBench{base: base{workers, doacross.Auto}, a: a, in: pcgInputs(seed, a.Rows)}
	// The reference: the same CG with the sequential substitutions.
	pre, err := sparse.NewILUPreconditioner(a)
	if err != nil {
		return nil, err
	}
	b.l = pre.L
	for _, rhs := range b.in.B {
		x := make([]float64, a.Rows)
		res, err := krylov.CG(a, rhs, x, pre, krylov.Options{Tolerance: cgTol})
		if err != nil || !res.Converged {
			return nil, fmt.Errorf("sequential reference CG: %v (%v)", res, err)
		}
		b.refX = append(b.refX, x)
		b.refIters = append(b.refIters, res.Iterations)
	}
	return b, nil
}

type pcgInstance struct {
	b       *pcgBench
	pre     *sparse.ILUPreconditioner
	m       krylov.Preconditioner
	release func()
	x       []float64
	res     krylov.Result
	tr      *tracer
	opID    int // current op id, for spans
	parent  int // span the next krylov/trisolve span nests under
}

func (b *pcgBench) build(tr *tracer, coll *doacross.MetricsCollector) (instance, error) {
	pre, err := sparse.NewILUPreconditioner(b.a)
	if err != nil {
		return nil, err
	}
	release, err := doacross.UseDoacrossILU(pre, b.options(doacross.WithMetrics(coll))...)
	if err != nil {
		return nil, err
	}
	in := &pcgInstance{b: b, pre: pre, m: pre, release: release, x: make([]float64, b.a.Rows), tr: tr}
	if tr != nil {
		in.m = tracedPrecond{in}
		lower, upper := pre.SolveLower, pre.SolveUpper
		pre.SolveLower = func(t *sparse.Triangular, rhs, y []float64) []float64 {
			id := in.tr.begin("trisolve.lower", in.opID, in.parent)
			y = lower(t, rhs, y)
			in.tr.end(id)
			return y
		}
		pre.SolveUpper = func(t *sparse.Triangular, rhs, y []float64) []float64 {
			id := in.tr.begin("trisolve.upper", in.opID, in.parent)
			y = upper(t, rhs, y)
			in.tr.end(id)
			return y
		}
	}
	return in, nil
}

// tracedPrecond records a span around every preconditioner application.
type tracedPrecond struct{ in *pcgInstance }

func (p tracedPrecond) Apply(r, z []float64) []float64 {
	in := p.in
	cg := in.parent
	id := in.tr.begin("krylov.apply", in.opID, cg)
	in.parent = id
	z = in.pre.Apply(r, z)
	in.parent = cg
	in.tr.end(id)
	return z
}

func (in *pcgInstance) prep(int) { clear(in.x) }

func (in *pcgInstance) op(k, parent int) error {
	in.opID = k
	id := in.tr.begin("krylov.cg", k, parent)
	in.parent = id
	res, err := krylov.CG(in.b.a, in.b.in.B[k%pcgRHS], in.x, in.m, krylov.Options{Tolerance: cgTol})
	in.tr.end(id)
	in.res = res
	return err
}

func (in *pcgInstance) check(k int) error {
	i := k % pcgRHS
	in.tr.note("krylov.iters", float64(in.res.Iterations))
	if !in.res.Converged || in.res.Iterations != in.b.refIters[i] {
		return fmt.Errorf("%w: CG %v, sequential preconditioner took %d iterations", errWrong, in.res, in.b.refIters[i])
	}
	return sameBits(in.x, in.b.refX[i])
}

func (in *pcgInstance) first() error {
	in.prep(0)
	if err := in.op(0, -1); err != nil {
		return err
	}
	return in.check(0)
}

func (in *pcgInstance) drive(d time.Duration) samples {
	return closedLoop(d, in.tr, in.prep, in.op, in.check)
}

func (in *pcgInstance) close() { in.release() }

func (b *pcgBench) layers(m metrics, tr *tracer) error {
	m["krylov.precond_frac"] = ratio(tr.total("krylov.apply"), tr.total("krylov.cg"))
	m["krylov.iters"] = median(tr.values("krylov.iters"))
	m["trisolve.lower_us"] = median(tr.durations("trisolve.lower"))
	m["trisolve.upper_us"] = median(tr.durations("trisolve.upper"))
	// UseDoacrossILU keeps its solvers' reports to itself, so the core and
	// tune layers are read from probe runtimes on the same factor.
	return factorProbe{base: b.base, t: b.l, rhs: b.in.B[0]}.measure(m)
}
