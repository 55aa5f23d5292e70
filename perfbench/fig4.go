package main

import (
	"time"

	"doacross"
	"doacross/internal/testloop"
)

// doacross-fig4: one caller runs the paper's Figure 4 loop with the default
// executor, the paper's busy-wait doacross. It is the only workload that
// uses the ready flags and the doacross's per-run inspector and postprocess
// reset, and its loop has anti-dependences.
var fig4Workload = workload{
	name:        "doacross-fig4",
	limit:       5 * time.Millisecond,
	segments:    20,
	extraSetups: 5,
	prepare:     prepareFig4,
}

const fig4Data = 4 // distinct initial arrays, cycled through

var fig4Config = testloop.Config{N: 10000, M: 5, L: 8}

type fig4Bench struct {
	base
	loop *doacross.Loop
	in   fig4Input
	ref  [][]float64
}

// fig4Input is the seeded input of doacross-fig4: the initial shared arrays.
type fig4Input struct{ Y0 [][]float64 }

func fig4Inputs(seed int64) fig4Input {
	r := rng(seed, 6)
	ys := make([][]float64, fig4Data)
	for i := range ys {
		ys[i] = make([]float64, fig4Config.DataLen())
		for j := range ys[i] {
			ys[i][j] = 1 + 0.1*r.Float64()
		}
	}
	return fig4Input{Y0: ys}
}

func prepareFig4(seed int64, workers int) (bench, error) {
	b := &fig4Bench{base: base{workers, doacross.Doacross}, loop: fig4Config.Loop(), in: fig4Inputs(seed)}
	for _, y0 := range b.in.Y0 {
		y := append([]float64(nil), y0...)
		if err := doacross.RunSequential(b.loop, y); err != nil {
			return nil, err
		}
		b.ref = append(b.ref, y)
	}
	return b, nil
}

type fig4Instance struct {
	b  *fig4Bench
	rt *doacross.Runtime
	y  []float64
	tr *tracer
}

func (b *fig4Bench) build(tr *tracer, coll *doacross.MetricsCollector) (instance, error) {
	rt, err := doacross.New(fig4Config.DataLen(), b.options(doacross.WithMetrics(coll))...)
	if err != nil {
		return nil, err
	}
	return &fig4Instance{b: b, rt: rt, y: make([]float64, fig4Config.DataLen()), tr: tr}, nil
}

func (in *fig4Instance) prep(k int) { copy(in.y, in.b.in.Y0[k%fig4Data]) }

func (in *fig4Instance) op(k, parent int) error {
	id := in.tr.begin("core.run", k, parent)
	rep, err := in.rt.Run(background, in.b.loop, in.y)
	in.tr.end(id)
	in.tr.report(rep)
	return err
}

func (in *fig4Instance) check(k int) error { return sameBits(in.y, in.b.ref[k%fig4Data]) }

func (in *fig4Instance) first() error {
	in.prep(0)
	if err := in.op(0, -1); err != nil {
		return err
	}
	return in.check(0)
}

func (in *fig4Instance) drive(d time.Duration) samples {
	return closedLoop(d, in.tr, in.prep, in.op, in.check)
}

func (in *fig4Instance) close() { in.rt.Close() }

func (b *fig4Bench) layers(m metrics, tr *tracer) error {
	fromReports(m, tr.reports)
	y0 := b.in.Y0[0]
	_, _, err := loopProbe{base: b.base, loop: b.loop, dataLen: fig4Config.DataLen(), reset: func(y []float64) { copy(y, y0) }}.measure(m)
	return err
}
