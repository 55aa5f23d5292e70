package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"doacross"
)

// errWrong marks an op whose answer differs from the sequential reference.
var errWrong = errors.New("wrong answer")

// samples is what one measured phase yields: one latency per attempted op,
// failed ones included, and whether each op was answered correctly.
type samples struct {
	lat       []float64 // µs
	ok        []bool
	attempted int
	failed    int
	wrong     int
	firstErr  error
	// genLateMs is the open-loop generator's lateness per request.
	genLateMs []float64
	// p50s and p90s hold each segment's latency percentiles.
	p50s, p90s []float64
}

func (s *samples) record(lat time.Duration, err error) {
	s.count(err)
	s.lat = append(s.lat, us(lat))
	s.ok = append(s.ok, err == nil)
}

// count records a checked op whose latency belongs elsewhere (a cold first
// op, timed as set-up).
func (s *samples) count(err error) {
	s.attempted++
	if err != nil {
		s.failed++
		if errors.Is(err, errWrong) {
			s.wrong++
		}
		if s.firstErr == nil {
			s.firstErr = err
		}
	}
}

// merge appends o's records to s.
func (s *samples) merge(o samples) {
	s.lat = append(s.lat, o.lat...)
	s.ok = append(s.ok, o.ok...)
	s.attempted += o.attempted
	s.failed += o.failed
	s.wrong += o.wrong
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
	s.genLateMs = append(s.genLateMs, o.genLateMs...)
	s.p50s = append(s.p50s, o.p50s...)
	s.p90s = append(s.p90s, o.p90s...)
}

// segment merges one segment's samples, keeping its percentiles.
func (s *samples) segment(o samples) {
	o.p50s, o.p90s = []float64{o.quantile(0.5)}, []float64{o.quantile(0.9)}
	s.merge(o)
}

func (s samples) quantile(q float64) float64 { return quantile(s.lat, q) }

// ontime is the share of timed ops answered correctly within limit.
func (s samples) ontime(limit time.Duration) float64 {
	n := 0
	for i, l := range s.lat {
		if s.ok[i] && l <= us(limit) {
			n++
		}
	}
	return ratio(float64(n), float64(len(s.lat)))
}

// thinkTime is the pause between the end of one closed-loop op and the start
// of the next; the check and the next op's reset run inside it. It is longer
// than the worker pool's spin budget, so every op starts from parked workers.
// Without it the gap was the check's own length, close to that budget, and
// the Figure 4 loop's median flipped between two modes 25% apart depending on
// whether the pool had parked.
const thinkTime = 200 * time.Microsecond

// closedLoop runs ops for d: one caller, the next op issued a think time
// after the previous one returned. Only op is timed: prep resets its inputs
// before, and check compares its answer with the reference after. Each op is
// recorded as a "bench.op" span whose id op receives as the parent of its
// own spans.
func closedLoop(d time.Duration, tr *tracer, prep func(k int), op func(k, parent int) error, check func(k int) error) samples {
	var s samples
	end := time.Now().Add(d)
	var next time.Time
	for k := 1; ; k++ {
		prep(k)
		for time.Now().Before(next) {
		}
		if !time.Now().Before(end) {
			return s
		}
		id := tr.begin("bench.op", k, -1)
		t0 := time.Now()
		err := op(k, id)
		lat := time.Since(t0)
		tr.end(id)
		next = time.Now().Add(thinkTime)
		if err == nil {
			err = check(k)
		}
		s.record(lat, err)
	}
}

// sameBits reports whether got equals want bit for bit.
func sameBits(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%w: %d values, want %d", errWrong, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("%w: element %d is %v, want %v", errWrong, i, got[i], want[i])
		}
	}
	return nil
}

// base holds what every workload's runtime is configured with.
type base struct {
	workers int
	exec    doacross.ExecutorKind
}

// options are the workload's runtime options; extra ones are appended.
func (b base) options(extra ...doacross.Option) []doacross.Option {
	return append([]doacross.Option{doacross.WithWorkers(b.workers), doacross.WithExecutor(b.exec)}, extra...)
}

func (b base) executor() doacross.ExecutorKind { return b.exec }

// pickCounts returns the runs per executor a metrics snapshot recorded.
func pickCounts(s doacross.MetricsSnapshot) map[string]uint64 {
	out := make(map[string]uint64)
	for name, e := range s.Executors {
		out[name] = e.Runs
	}
	return out
}

var background = context.Background()
