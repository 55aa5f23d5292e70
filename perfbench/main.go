// Command perfbench is the repository's benchmark. It runs one named
// workload against the doacross API for a fixed time, checks every answer
// against a sequential reference computed outside the timed region, and
// prints one JSON result line:
//
//	go run . --workload pcg-7pt --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics (set-up time, op latency
// percentiles, on-time share, share of ops answered correctly) from an
// untraced run. With --trace 1 it reports the per-layer split instead: half
// the time runs untraced, half with spans recorded around every call into a
// layer (written to --spans as CSV), followed by short side probes of the
// layers the workload exercises. A layer that a workload does not exercise
// reports zero.
//
// Inputs are generated from --seed only; the program under test receives
// just the generated inputs. Workers default to the number of CPUs and
// GOMAXPROCS is left at its default. The command exits non-zero when any op
// fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"doacross"
)

// endToEnd lists the metrics of an untraced run with their units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_us", "us"},
	{"op_p90_us", "us"},
	{"ontime_frac", "frac"},
	{"ok_frac", "frac"},
}

// perLayer lists the metrics of a traced run with their units; README.md
// says what each one measures.
var perLayer = []metricDef{
	{"krylov.precond_frac", "frac"},
	{"krylov.iters", "count"},
	{"trisolve.lower_us", "us"},
	{"trisolve.upper_us", "us"},
	{"trisolve.seq_us", "us"},
	{"trisolve.p1_us", "us"},
	{"trisolve.vs_seq", "x"},
	{"trisolve.flops", "flop-computed"},
	{"trisolve.bytes", "B-computed"},
	{"core.pre_us", "us"},
	{"core.exec_us", "us"},
	{"core.post_us", "us"},
	{"core.exec_ns_per_iter", "ns"},
	{"core.plan_hit_frac", "frac"},
	{"core.levels", "count"},
	{"core.busy_frac", "frac"},
	{"depgraph.repair_us", "us"},
	{"depgraph.repaired_frac", "frac"},
	{"depgraph.cone_rows", "count"},
	{"depgraph.cold_inspect_us", "us"},
	{"depgraph.warm_inspect_ns", "ns"},
	{"sched.submit_ns", "ns"},
	{"sched.barrier_ns", "ns"},
	{"sched.claim_ns", "ns"},
	{"flags.wait_polls", "count"},
	{"flags.polls_per_dep", "count"},
	{"tune.pick_wavefront_frac", "frac"},
	{"tune.pick_doacross_frac", "frac"},
	{"tune.pick_dynamic_frac", "frac"},
	{"tune.pred_err", "frac"},
	{"tune.regret", "x"},
	{"serve.queue_wait_us", "us"},
	{"serve.batch_solve_us", "us"},
	{"serve.mean_batch", "count"},
	{"serve.window_flush_frac", "frac"},
	{"serve.max_queue_depth", "count"},
	{"bench.op_p99_us", "us"},
	{"bench.gen_late_ms", "ms"},
	{"bench.trace_overhead", "x"},
}

type metricDef struct{ name, unit string }

// metrics holds measured values by name.
type metrics map[string]float64

// workload is one named set of inputs and the way they are driven.
type workload struct {
	name string
	// limit is the latency an op must meet to count as on time.
	limit time.Duration
	// segments is how many fresh constructions share a run's measured time:
	// each is built, finishes its cold first op (timed as set-up), then runs
	// ops for its share. Pooling them keeps a run from resting on one
	// construction's Auto pick or worker placement.
	segments int
	// extraSetups is how many further constructions only time set-up, so
	// setup_s is a median over segments+extraSetups.
	extraSetups int
	// prepare generates the seeded inputs and their sequential references.
	// It is not timed.
	prepare func(seed int64, workers int) (bench, error)
}

// bench is a workload's prepared inputs.
type bench interface {
	// build constructs a fresh runtime, solver or service over the inputs,
	// recording its runs in coll. A non-nil tracer selects the traced
	// variant, which records spans and layer data in it.
	build(tr *tracer, coll *doacross.MetricsCollector) (instance, error)
	// executor is the executor the workload requests.
	executor() doacross.ExecutorKind
	// options are the runtime options the workload runs with, plus extra.
	options(extra ...doacross.Option) []doacross.Option
	// layers fills the per-layer metrics from a traced phase's records,
	// plus side probes of the layers the workload exercises.
	layers(m metrics, tr *tracer) error
}

// instance is one constructed runtime, solver or service.
type instance interface {
	// first runs and checks the cold op that completes set-up.
	first() error
	// drive runs ops for d and returns what was measured.
	drive(d time.Duration) samples
	close()
}

var workloads = []workload{pcgWorkload, serveWorkload, editWorkload, fig4Workload}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run")
	spansPath := fs.String("spans", "", "file to write the traced run's spans to (CSV)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have", *name)
		for _, x := range workloads {
			fmt.Fprintf(stderr, " %s", x.name)
		}
		fmt.Fprintln(stderr, ")")
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	workers := runtime.NumCPU()
	b, err := w.prepare(*seed, workers)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: preparing inputs: %v\n", w.name, err)
		return 1
	}
	d := time.Duration(*seconds * float64(time.Second))
	var res result
	if *trace == 1 {
		res, err = tracedRun(w, b, d, *spansPath, stderr)
	} else {
		res, err = untracedRun(w, b, d)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	st := newStamp(w, b, *seed, workers, res.picked)
	line, _ := json.Marshal(map[string]any{"stamp": st})
	fmt.Fprintln(stdout, string(line))
	out, err := res.json(*trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if res.failed > 0 {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d ops failed: %v\n", w.name, res.failed, res.attempted, res.firstErr)
		return 1
	}
	return 0
}

// result is one run's outcome.
type result struct {
	samples
	metrics metrics
	picked  map[string]uint64
}

func (r result) json(traced bool) ([]byte, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(defs))
	for _, d := range defs {
		ms[d.name] = value{r.metrics[d.name], d.unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.wrong == 0, r.attempted, r.failed, ms})
}

// measure runs one phase: w.extraSetups constructions that only time
// set-up, then w.segments constructions that each also run ops for an equal
// share of d. Every cold first op is checked and counted. Latency
// percentiles are taken per segment and reported as their median over the
// segments, so a burst of host noise (steal time on a shared machine) that
// hits a few segments does not move them; pooled over the run, the p90 of
// serve-5pt spread three times as much between runs.
func measure(w *workload, b bench, d time.Duration, tr *tracer) (setups []float64, s samples, runs doacross.MetricsSnapshot, err error) {
	coll := doacross.NewMetricsCollector()
	n := w.extraSetups + w.segments
	for i := 0; i < n; i++ {
		tr.setSegment(i)
		t0 := time.Now()
		in, err := b.build(tr, coll)
		if err != nil {
			return nil, s, runs, fmt.Errorf("build: %w", err)
		}
		mark := tr.mark()
		err = in.first()
		setups = append(setups, time.Since(t0).Seconds())
		tr.reset(mark) // layer metrics describe warm ops
		s.count(err)
		if i >= w.extraSetups {
			s.segment(in.drive(d / time.Duration(w.segments)))
		}
		in.close()
	}
	return setups, s, coll.Snapshot(), nil
}

// untracedRun measures the end-to-end metrics.
func untracedRun(w *workload, b bench, d time.Duration) (result, error) {
	setups, s, runs, err := measure(w, b, d, nil)
	if err != nil {
		return result{}, err
	}
	m := metrics{
		"setup_s":     median(setups),
		"op_p50_us":   median(s.p50s),
		"op_p90_us":   median(s.p90s),
		"ontime_frac": s.ontime(w.limit),
		"ok_frac":     ratio(float64(s.attempted-s.failed), float64(s.attempted)),
	}
	return result{samples: s, metrics: m, picked: pickCounts(runs)}, nil
}

// tracedRun measures half of d untraced and half traced, then fills the
// per-layer metrics from the traced half and the side probes.
func tracedRun(w *workload, b bench, d time.Duration, spansPath string, stderr io.Writer) (result, error) {
	_, plain, _, err := measure(w, b, d/2, nil)
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	_, s, runs, err := measure(w, b, d/2, tr)
	if err != nil {
		return result{}, err
	}
	res := result{samples: plain, metrics: metrics{}, picked: pickCounts(runs)}
	res.merge(s)
	m := res.metrics
	m["bench.op_p99_us"] = plain.quantile(0.99)
	m["bench.trace_overhead"] = ratio(median(s.p50s), median(plain.p50s))
	if len(plain.genLateMs) > 0 {
		m["bench.gen_late_ms"] = mean(plain.genLateMs)
	}
	picks(m, res.picked)
	m["core.plan_hit_frac"] = ratio(float64(runs.PlanHits), float64(runs.PlanHits+runs.PlanMisses))
	if err := b.layers(m, tr); err != nil {
		return res, fmt.Errorf("layer probes: %w", err)
	}

	fmt.Fprintf(stderr, "%s: self time by span over %d traced ops\n", w.name, len(s.lat))
	fmt.Fprintf(stderr, "  %-20s %8s %12s %12s %8s\n", "span", "count", "total_us", "self_us/op", "self%")
	for _, lt := range tr.selfTimes(len(s.lat)) {
		fmt.Fprintf(stderr, "  %-20s %8d %12.0f %12.2f %7.1f%%\n", lt.name, lt.count, lt.totalUs, lt.selfPerOpUs, 100*lt.selfShare)
	}
	if spansPath != "" {
		f, err := os.Create(spansPath)
		if err != nil {
			return res, err
		}
		werr := tr.write(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return res, fmt.Errorf("writing spans: %w", werr)
		}
	}
	return res, nil
}

// picks fills the tune.pick_* shares from per-executor run counts.
func picks(m metrics, byExec map[string]uint64) {
	var total uint64
	for _, n := range byExec {
		total += n
	}
	m["tune.pick_wavefront_frac"] = ratio(float64(byExec["wavefront"]), float64(total))
	m["tune.pick_doacross_frac"] = ratio(float64(byExec["doacross"]), float64(total))
	m["tune.pick_dynamic_frac"] = ratio(float64(byExec["wavefront-dynamic"]), float64(total))
}

// stamp records the host and configuration a result was measured under.
type stamp struct {
	Workload   string            `json:"workload"`
	Host       string            `json:"host"`
	NumCPU     int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go"`
	Workers    int               `json:"workers"`
	Requested  string            `json:"executor_requested"`
	Picked     map[string]uint64 `json:"executor_picked"`
	Wait       string            `json:"wait_strategy"`
	Seed       int64             `json:"seed"`
}

// newStamp records the run's configuration. The wait strategy is the one a
// runtime built with the workload's options reports for a one-iteration loop.
func newStamp(w *workload, b bench, seed int64, workers int, picked map[string]uint64) stamp {
	host, _ := os.Hostname()
	st := stamp{
		Workload: w.name, Host: host, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Workers: workers, Requested: b.executor().String(),
		Picked: picked, Seed: seed,
	}
	loop, err := doacross.NewLoop(1, 1).
		Writes(func(int) []int { return []int{0} }).
		Reads(func(int) []int { return nil }).
		Body(func(i int, v *doacross.Values) { v.Store(0, 1) }).
		Build()
	if err != nil {
		return st
	}
	rt, err := doacross.New(1, b.options()...)
	if err != nil {
		return st
	}
	defer rt.Close()
	if rep, err := rt.Run(background, loop, make([]float64, 1)); err == nil {
		st.Wait = rep.WaitPolicy
	}
	return st
}
