package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"doacross"
	"doacross/internal/serve"
	"doacross/internal/stencil"
)

// serve-5pt: independent callers send single solves of the 5-PT lower
// factor to a SolveService as a Poisson stream at a fixed rate (an open
// loop). It is the only workload that uses the serving layer and the
// multi-right-hand-side path; narrow levels make barrier cost large, and
// batching spreads it across requests.
var serveWorkload = workload{
	name:        "serve-5pt",
	limit:       serveLimit,
	segments:    20,
	extraSetups: 5,
	prepare:     prepareServe,
}

const (
	serveRate   = 1000.0 // requests per second, below saturation
	serveWindow = 200 * time.Microsecond
	serveLimit  = 10 * time.Millisecond
	serveRHS    = 32 // distinct right-hand sides requests draw from
	// backlogLimit is how many more requests may be outstanding when the
	// schedule ends than when it started before the rate counts as not
	// sustained: one full batch.
	backlogLimit   = doacross.MaxRHSBlock
	requestTimeout = 10 * time.Second
)

var errBacklog = errors.New("backlog grew: rate not sustained")

type serveBench struct {
	base
	t        *doacross.Triangular
	seed     int64
	in       serveInput
	ref      [][]float64
	segments int // segments driven so far
}

// serveInput is the seeded input of serve-5pt apart from the arrival
// schedule, which is drawn on demand from the same seed (see schedule).
type serveInput struct{ B [][]float64 }

func serveInputs(seed int64, n int) serveInput {
	return serveInput{B: vectors(rng(seed, 2), serveRHS, n)}
}

// schedule draws the open-loop arrivals of one segment that fall within d:
// each request's due time (offset from the start) and the right-hand side it
// carries. Every segment of a run draws its own arrivals.
func schedule(seed int64, segment int, d time.Duration) (due []time.Duration, pick []int) {
	r := rng(seed, int64(100+segment))
	var at time.Duration
	for {
		at += time.Duration(r.ExpFloat64() / serveRate * float64(time.Second))
		if at >= d {
			return due, pick
		}
		due = append(due, at)
		pick = append(pick, r.Intn(serveRHS))
	}
}

func prepareServe(seed int64, workers int) (bench, error) {
	l, _, err := stencil.LowerFactor(stencil.FivePoint, 1)
	if err != nil {
		return nil, err
	}
	b := &serveBench{base: base{workers, doacross.Auto}, t: l, seed: seed, in: serveInputs(seed, l.N)}
	for _, rhs := range b.in.B {
		b.ref = append(b.ref, doacross.SolveSequential(l, rhs))
	}
	return b, nil
}

type serveInstance struct {
	b      *serveBench
	solver *doacross.Solver
	svc    *doacross.SolveService
	tr     *tracer
	wrap   *tracedSolver // nil when untraced
}

func (b *serveBench) build(tr *tracer, coll *doacross.MetricsCollector) (instance, error) {
	solver, err := doacross.NewSolver(b.t, b.options(doacross.WithMetrics(coll))...)
	if err != nil {
		return nil, err
	}
	in := &serveInstance{b: b, solver: solver, tr: tr}
	opts := doacross.ServeOptions{Window: serveWindow, Metrics: coll}
	if tr == nil {
		in.svc, err = doacross.NewSolveService(solver, opts)
	} else {
		in.wrap = &tracedSolver{s: solver, tr: tr, byAnswer: make(map[*float64]batch)}
		in.svc, err = serve.NewSolveService(in.wrap, opts)
	}
	if err != nil {
		solver.Close()
		return nil, err
	}
	return in, nil
}

func (in *serveInstance) first() error {
	y, err := in.svc.Solve(background, in.b.in.B[0])
	if err != nil {
		return err
	}
	if in.wrap != nil {
		in.wrap.batchOf(y)
	}
	return sameBits(y, in.b.ref[0])
}

// drive sends the seeded schedule for d, one goroutine per request so that
// a slow answer never delays the next send. Latency runs from each
// request's due time, so a stall also charges the requests queued behind it
// and any lateness of the generator itself.
func (in *serveInstance) drive(d time.Duration) samples {
	due, pick := schedule(in.b.seed, in.b.segments, d)
	in.b.segments++
	type outcome struct {
		lat  time.Duration
		done time.Time
		err  error
	}
	res := make([]outcome, len(due))
	late := make([]float64, len(due))
	var outstanding atomic.Int64
	var wg sync.WaitGroup
	start := time.Now().Add(time.Millisecond)
	for i := range due {
		at := start.Add(due[i])
		if w := time.Until(at); w > 0 {
			time.Sleep(w)
		}
		late[i] = float64(time.Since(at)) / float64(time.Millisecond)
		outstanding.Add(1)
		wg.Add(1)
		go func(i int, at time.Time) {
			defer wg.Done()
			lat, err := in.request(i, at, pick[i])
			res[i] = outcome{lat, time.Now(), err}
			outstanding.Add(-1)
		}(i, at)
	}
	// Nothing is outstanding when the schedule starts, so the count still
	// outstanding when it ends is how far the backlog grew.
	endOfSchedule := time.Now()
	backlog := outstanding.Load() > backlogLimit
	wg.Wait()

	s := samples{genLateMs: late}
	for _, o := range res {
		if backlog && o.err == nil && o.done.After(endOfSchedule) {
			o.err = fmt.Errorf("%w: answered after the schedule ended", errBacklog)
		}
		s.record(o.lat, o.err)
	}
	return s
}

// request sends one solve and checks its answer.
func (in *serveInstance) request(i int, at time.Time, pick int) (time.Duration, error) {
	ctx, cancel := context.WithTimeout(background, requestTimeout)
	y, err := in.svc.Solve(ctx, in.b.in.B[pick])
	done := time.Now()
	cancel()
	lat := done.Sub(at)
	if err != nil {
		return lat, err
	}
	if in.wrap != nil {
		if b, ok := in.wrap.batchOf(y); ok {
			id := in.tr.add("serve.request", i, -1, at, done)
			in.tr.add("serve.solve", i, id, b.start, b.end)
			in.tr.note("serve.queue_wait_us", us(lat-b.end.Sub(b.start)))
		}
	}
	return lat, sameBits(y, in.b.ref[pick])
}

func (in *serveInstance) close() {
	st := in.svc.Stats()
	in.tr.note("serve.batches", float64(st.Batches))
	in.tr.note("serve.batched", st.MeanBatch()*float64(st.Batches))
	in.tr.note("serve.window_flushes", float64(st.WindowFlushes))
	in.tr.note("serve.max_queue_depth", float64(st.MaxQueueDepth))
	in.svc.Close()
	in.solver.Close()
}

func (b *serveBench) layers(m metrics, tr *tracer) error {
	batches := sum(tr.values("serve.batches"))
	m["serve.queue_wait_us"] = median(tr.values("serve.queue_wait_us"))
	m["serve.batch_solve_us"] = median(tr.values("serve.batch_solve_us"))
	m["serve.mean_batch"] = ratio(sum(tr.values("serve.batched")), batches)
	m["serve.window_flush_frac"] = ratio(sum(tr.values("serve.window_flushes")), batches)
	m["serve.max_queue_depth"] = quantile(tr.values("serve.max_queue_depth"), 1)
	fromReports(m, tr.reports)
	return factorProbe{base: b.base, t: b.t, rhs: b.in.B[0]}.measure(m)
}

// batch is one SolveMultiContext call's interval.
type batch struct{ start, end time.Time }

// tracedSolver is the serve.BatchSolver handed to the service in the traced
// run: it times every batch, keeps its report, and remembers which batch
// produced each answer slice so a request can find its batch's solve time.
type tracedSolver struct {
	s        *doacross.Solver
	tr       *tracer
	mu       sync.Mutex
	byAnswer map[*float64]batch
}

func (w *tracedSolver) N() int { return w.s.N() }

func (w *tracedSolver) SolveMultiContext(ctx context.Context, bs, ys [][]float64) ([][]float64, doacross.Report, error) {
	t0 := time.Now()
	out, rep, err := w.s.SolveMultiContext(ctx, bs, ys)
	b := batch{t0, time.Now()}
	w.tr.note("serve.batch_solve_us", us(b.end.Sub(b.start)))
	if err != nil {
		return out, rep, err
	}
	w.tr.report(rep)
	w.mu.Lock()
	for _, y := range out {
		if len(y) > 0 {
			w.byAnswer[&y[0]] = b
		}
	}
	w.mu.Unlock()
	return out, rep, err
}

// batchOf returns (and forgets) the batch that produced answer y.
func (w *tracedSolver) batchOf(y []float64) (batch, bool) {
	if len(y) == 0 {
		return batch{}, false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	b, ok := w.byAnswer[&y[0]]
	delete(w.byAnswer, &y[0])
	return b, ok
}

var _ serve.BatchSolver = (*tracedSolver)(nil)
