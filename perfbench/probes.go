package main

import (
	"math"
	"time"

	"doacross"
	"doacross/internal/sched"
)

// probeReps is how many runs each side probe times.
const probeReps = 40

// loopProbe measures, outside the workload's own ops, the layers below its
// runtime on one loop: the executor choice (regret against every fixed
// executor), the level barrier and chunk claim the Auto probe calibrates,
// worker utilisation from WithTrace, the cold and warm inspector, and an
// empty pool submission. Runtimes are interleaved rep by rep so that host
// noise hits every arm alike.
type loopProbe struct {
	base
	loop    *doacross.Loop
	dataLen int
	// reset prepares y before each run; nil when the loop overwrites y.
	reset func(y []float64)
}

// measure fills the probe's metrics and returns the median run time (µs) of
// the workload's executor and of a one-worker runtime with that executor.
func (p loopProbe) measure(m metrics) (ownUs, p1Us float64, err error) {
	kinds := []doacross.ExecutorKind{doacross.Auto, doacross.Doacross, doacross.Wavefront, doacross.WavefrontDynamic}
	type arm struct {
		rt      *doacross.Runtime
		times   []float64
		reports []doacross.Report
	}
	arms := make([]*arm, 0, len(kinds)+2)
	defer func() {
		for _, a := range arms {
			a.rt.Close()
		}
	}()
	newArm := func(opts ...doacross.Option) error {
		rt, err := doacross.New(p.dataLen, opts...)
		if err != nil {
			return err
		}
		arms = append(arms, &arm{rt: rt})
		return nil
	}
	for _, k := range kinds {
		if err := newArm(doacross.WithWorkers(p.workers), doacross.WithExecutor(k)); err != nil {
			return 0, 0, err
		}
	}
	if err := newArm(doacross.WithWorkers(1), doacross.WithExecutor(p.exec)); err != nil {
		return 0, 0, err
	}
	if err := newArm(p.options(doacross.WithTrace())...); err != nil {
		return 0, 0, err
	}
	y := make([]float64, p.dataLen)
	var busy []float64
	for rep := -1; rep < probeReps; rep++ {
		for i, a := range arms {
			if p.reset != nil {
				p.reset(y)
			}
			t0 := time.Now()
			r, err := a.rt.Run(background, p.loop, y)
			d := time.Since(t0)
			if err != nil {
				return 0, 0, err
			}
			if rep < 0 {
				continue // the cold run inspects and calibrates
			}
			a.times = append(a.times, us(d))
			a.reports = append(a.reports, r)
			if i == len(arms)-1 {
				busy = append(busy, busyFrac(a.rt.Trace(), r.ExecTime))
			}
		}
	}
	p50 := func(k doacross.ExecutorKind) float64 {
		for i, kk := range kinds {
			if kk == k {
				return median(arms[i].times)
			}
		}
		return 0
	}
	best := math.Min(p50(doacross.Doacross), math.Min(p50(doacross.Wavefront), p50(doacross.WavefrontDynamic)))
	ownUs = p50(p.exec)
	m["tune.regret"] = ratio(ownUs, best)
	m["core.busy_frac"] = median(busy)
	for i, k := range kinds {
		if k == p.exec {
			fromReports(m, arms[i].reports)
		}
	}
	fromReports(m, arms[0].reports) // the Auto arm's calibrated costs
	p1Us = median(arms[len(kinds)].times)

	if err := p.inspect(m); err != nil {
		return 0, 0, err
	}
	m["sched.submit_ns"] = submitNs(p.workers)
	return ownUs, p1Us, nil
}

// busyFrac is the traced iteration time over workers × executor time.
func busyFrac(t *doacross.Trace, exec time.Duration) float64 {
	if t == nil || exec <= 0 {
		return 0
	}
	var sum time.Duration
	for _, it := range t.Iterations {
		sum += it.End - it.Start
	}
	return float64(sum) / (float64(t.Workers) * float64(exec))
}

// inspect times the inspector cold (after InvalidatePlans) and warm (a plan
// cache hit).
func (p loopProbe) inspect(m metrics) error {
	rt, err := doacross.New(p.dataLen, doacross.WithWorkers(p.workers), doacross.WithExecutor(doacross.Wavefront))
	if err != nil {
		return err
	}
	defer rt.Close()
	const warmBatch = 100
	var cold, warm []float64
	for rep := -1; rep < probeReps; rep++ {
		rt.InvalidatePlans()
		t0 := time.Now()
		if _, err := rt.Inspect(p.loop); err != nil {
			return err
		}
		c := time.Since(t0)
		t0 = time.Now()
		for i := 0; i < warmBatch; i++ {
			if _, err := rt.Inspect(p.loop); err != nil {
				return err
			}
		}
		w := time.Since(t0)
		if rep >= 0 {
			cold = append(cold, us(c))
			warm = append(warm, float64(w.Nanoseconds())/warmBatch)
		}
	}
	m["depgraph.cold_inspect_us"] = median(cold)
	m["depgraph.warm_inspect_ns"] = median(warm)
	return nil
}

// submitNs is the median round trip of an empty submission to a pool of the
// workload's size.
func submitNs(workers int) float64 {
	pool := sched.NewPool(workers)
	defer pool.Close()
	const batch = 200
	var per []float64
	for rep := -1; rep < probeReps; rep++ {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			pool.Submit(workers, func(int) {})
		}
		if rep >= 0 {
			per = append(per, float64(time.Since(t0).Nanoseconds())/batch)
		}
	}
	return median(per)
}

// fromReports fills the core, flags, tune and sched metrics that run
// reports carry, leaving metrics already set alone.
func fromReports(m metrics, reps []doacross.Report) {
	if len(reps) == 0 {
		return
	}
	var pre, exec, post, perIter, levels, polls, perDep, predErr []float64
	for _, r := range reps {
		pre = append(pre, us(r.PreTime))
		exec = append(exec, us(r.ExecTime))
		post = append(post, us(r.PostTime))
		perIter = append(perIter, ratio(float64(r.ExecTime.Nanoseconds()), float64(r.Iterations)))
		levels = append(levels, float64(r.Levels))
		polls = append(polls, float64(r.WaitPolls))
		perDep = append(perDep, ratio(float64(r.WaitPolls), float64(r.TrueDeps)))
		if pred := predicted(r); pred > 0 && r.ExecTime > 0 {
			e := float64(r.ExecTime.Nanoseconds())
			predErr = append(predErr, math.Abs(pred-e)/e)
		}
		if r.AutoCosts.BarrierNs > 0 {
			setOnce(m, "sched.barrier_ns", r.AutoCosts.BarrierNs)
			setOnce(m, "sched.claim_ns", r.AutoCosts.ClaimNs)
		}
	}
	setOnce(m, "core.pre_us", median(pre))
	setOnce(m, "core.exec_us", median(exec))
	setOnce(m, "core.post_us", median(post))
	setOnce(m, "core.exec_ns_per_iter", median(perIter))
	setOnce(m, "core.levels", median(levels))
	setOnce(m, "flags.wait_polls", median(polls))
	setOnce(m, "flags.polls_per_dep", median(perDep))
	if len(predErr) > 0 {
		setOnce(m, "tune.pred_err", median(predErr))
	}
}

// predicted is the cost model's estimate for the executor that ran.
func predicted(r doacross.Report) float64 {
	switch r.Executor {
	case "doacross":
		return r.PredictedDoacrossNs
	case "wavefront":
		return r.PredictedWavefrontNs
	case "wavefront-dynamic":
		return r.PredictedDynamicNs
	}
	return 0
}

func setOnce(m metrics, name string, v float64) {
	if _, ok := m[name]; !ok {
		m[name] = v
	}
}

// factorProbe is a loopProbe over the forward substitution of a triangular
// factor, plus the trisolve layer's sequential and computed-cost baselines.
type factorProbe struct {
	base
	t   *doacross.Triangular
	rhs []float64
}

func (f factorProbe) measure(m metrics) error {
	loop, err := doacross.TrisolveLoop(f.t, f.rhs)
	if err != nil {
		return err
	}
	ownUs, p1Us, err := loopProbe{base: f.base, loop: loop, dataLen: f.t.N}.measure(m)
	if err != nil {
		return err
	}
	y := make([]float64, f.t.N)
	m["trisolve.seq_us"] = medianTime(probeReps, func() { y = f.t.Solve(f.rhs, y) })
	m["trisolve.p1_us"] = p1Us
	setOnce(m, "trisolve.lower_us", ownUs)
	m["trisolve.vs_seq"] = ratio(m["trisolve.seq_us"], m["trisolve.lower_us"])
	nnz, n := float64(len(f.t.Col)), float64(f.t.N)
	flops, bytes := 2*nnz, nnz*(8+8+8)+(n+1)*8+2*n*8
	if !f.t.UnitDiag {
		flops += n
		bytes += n * 8
	}
	m["trisolve.flops"] = flops
	m["trisolve.bytes"] = bytes
	return nil
}
