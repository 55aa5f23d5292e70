package main

import (
	"math/rand"
	"time"

	"doacross"
	"doacross/internal/stencil"
)

// edit-spe2: one caller edits 16 rows of the SPE2 lower factor and then
// solves with it, so cached plans are repaired as well as reused. A change
// that stores more per plan to speed up repeated solves shows its cost here.
var editWorkload = workload{
	name:        "edit-spe2",
	limit:       5 * time.Millisecond,
	segments:    20,
	extraSetups: 5,
	prepare:     prepareEdit,
}

const (
	editsPerOp = 16
	editRHS    = 8
	// editCopies is how many pristine copies of the factor prepare makes,
	// enough for every construction of a run.
	editCopies = 50
)

type editBench struct {
	base
	seed  int64
	in    editInput
	fresh []*doacross.Triangular
}

// editInput is the seeded input of edit-spe2 apart from the edited rows,
// which each instance draws from the same seed (see editStream).
type editInput struct {
	L *doacross.Triangular
	B [][]float64
}

func editInputs(seed int64) (editInput, error) {
	l, _, err := stencil.LowerFactor(stencil.SPE2, seed)
	if err != nil {
		return editInput{}, err
	}
	return editInput{L: l, B: vectors(rng(seed, 4), editRHS, l.N)}, nil
}

// editStream is the seeded sequence of edits: each edit toggles one row
// between its factored off-diagonal pattern and that pattern without its
// last entry, so any number of edits keeps the matrix well-conditioned.
type editStream struct {
	r       *rand.Rand
	origCol [][]int
	origVal [][]float64
	thinned []bool
}

func newEditStream(seed int64, l *doacross.Triangular) *editStream {
	e := &editStream{r: rng(seed, 5), origCol: make([][]int, l.N), origVal: make([][]float64, l.N), thinned: make([]bool, l.N)}
	for i := 0; i < l.N; i++ {
		e.origCol[i] = l.Col[l.RowPtr[i]:l.RowPtr[i+1]:l.RowPtr[i+1]]
		e.origVal[i] = l.Val[l.RowPtr[i]:l.RowPtr[i+1]:l.RowPtr[i+1]]
	}
	return e
}

// next returns the next edited row and its new pattern.
func (e *editStream) next() (row int, cols []int, vals []float64) {
	n := len(e.origCol)
	row = 1 + e.r.Intn(n-1)
	for len(e.origCol[row]) == 0 {
		row = 1 + e.r.Intn(n-1)
	}
	cols, vals = e.origCol[row], e.origVal[row]
	if !e.thinned[row] {
		cols, vals = cols[:len(cols)-1], vals[:len(vals)-1]
	}
	e.thinned[row] = !e.thinned[row]
	return row, cols, vals
}

func prepareEdit(seed int64, workers int) (bench, error) {
	in, err := editInputs(seed)
	if err != nil {
		return nil, err
	}
	b := &editBench{base: base{workers, doacross.Wavefront}, seed: seed, in: in}
	for i := 0; i < editCopies; i++ {
		b.fresh = append(b.fresh, cloneTri(in.L))
	}
	return b, nil
}

type editInstance struct {
	b       *editBench
	t       *doacross.Triangular // this instance's copy, edited in place
	edits   *editStream
	pending [editsPerOp]edit // the next op's edits, drawn before it is timed
	solver  *doacross.Solver
	y       []float64
	want    []float64
	tr      *tracer
}

func (b *editBench) build(tr *tracer, coll *doacross.MetricsCollector) (instance, error) {
	var t *doacross.Triangular
	if len(b.fresh) > 0 {
		t, b.fresh = b.fresh[0], b.fresh[1:]
	} else {
		t = cloneTri(b.in.L)
	}
	solver, err := doacross.NewSolver(t, b.options(doacross.WithMetrics(coll))...)
	if err != nil {
		return nil, err
	}
	// The stream keeps the pristine pattern of b.in.L, which is never edited.
	return &editInstance{
		b: b, t: t, edits: newEditStream(b.seed, b.in.L), solver: solver,
		y: make([]float64, t.N), want: make([]float64, t.N), tr: tr,
	}, nil
}

// edit is one row's new off-diagonal pattern.
type edit struct {
	row  int
	cols []int
	vals []float64
}

func (in *editInstance) prep(int) {
	for j := range in.pending {
		e := &in.pending[j]
		e.row, e.cols, e.vals = in.edits.next()
	}
}

func (in *editInstance) op(k, parent int) error {
	var repair time.Duration
	for _, e := range in.pending {
		id := in.tr.begin("trisolve.update_row", k, parent)
		rep, err := in.solver.UpdateRow(e.row, e.cols, e.vals, in.t.Diag[e.row])
		in.tr.end(id)
		if err != nil {
			return err
		}
		repair += rep.RepairTime
		if rep.Repaired {
			in.tr.note("depgraph.repaired", 1)
			in.tr.note("depgraph.cone_rows", float64(rep.ConeSize))
		} else {
			in.tr.note("depgraph.repaired", 0)
		}
	}
	id := in.tr.begin("trisolve.lower", k, parent)
	_, rep, err := in.solver.Solve(in.b.in.B[k%editRHS], in.y)
	in.tr.end(id)
	in.tr.note("depgraph.repair_us", us(repair))
	in.tr.report(rep)
	return err
}

// check solves the edited matrix sequentially.
func (in *editInstance) check(k int) error {
	in.want = in.t.Solve(in.b.in.B[k%editRHS], in.want)
	return sameBits(in.y, in.want)
}

func (in *editInstance) first() error {
	in.prep(0)
	if err := in.op(0, -1); err != nil {
		return err
	}
	return in.check(0)
}

func (in *editInstance) drive(d time.Duration) samples {
	return closedLoop(d, in.tr, in.prep, in.op, in.check)
}

func (in *editInstance) close() { in.solver.Close() }

func (b *editBench) layers(m metrics, tr *tracer) error {
	m["depgraph.repair_us"] = median(tr.values("depgraph.repair_us"))
	m["depgraph.repaired_frac"] = mean(tr.values("depgraph.repaired"))
	m["depgraph.cone_rows"] = mean(tr.values("depgraph.cone_rows"))
	m["trisolve.lower_us"] = median(tr.durations("trisolve.lower"))
	fromReports(m, tr.reports)
	return factorProbe{base: b.base, t: b.in.L, rhs: b.in.B[0]}.measure(m)
}
