package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"doacross"
	"doacross/internal/serve"
)

// inputsOf returns every generated input of every workload for one seed,
// serialized: right-hand sides, initial arrays, the SPE2 factor, the first
// edits, and the first arrivals of three serving segments.
func inputsOf(t *testing.T, seed int64) map[string][]byte {
	t.Helper()
	enc := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	out := map[string][]byte{
		"pcg":   enc(pcgInputs(seed, 8000)),
		"serve": enc(serveInputs(seed, 3969)),
		"fig4":  enc(fig4Inputs(seed)),
	}
	for seg := 0; seg < 3; seg++ {
		due, pick := schedule(seed, seg, time.Second)
		out["arrivals"] = append(out["arrivals"], enc([]any{due, pick})...)
	}
	ed, err := editInputs(seed)
	if err != nil {
		t.Fatal(err)
	}
	out["edit"] = enc(ed)
	s := newEditStream(seed, ed.L)
	var edits []any
	for i := 0; i < 1000; i++ {
		row, cols, vals := s.next()
		edits = append(edits, row, cols, vals)
	}
	out["edits"] = enc(edits)
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := inputsOf(t, 7), inputsOf(t, 7)
	for k := range a {
		if !bytes.Equal(a[k], b[k]) {
			t.Errorf("%s: seed 7 generated different inputs on two calls", k)
		}
	}
}

func TestOtherSeedSameMix(t *testing.T) {
	a, b := inputsOf(t, 7), inputsOf(t, 8)
	for k := range a {
		if bytes.Equal(a[k], b[k]) {
			t.Errorf("%s: seeds 7 and 8 generated identical inputs", k)
		}
	}
	// Same op mix: as many right-hand sides of the same length, arrivals at
	// the same rate, and the same edits per op.
	p7, p8 := pcgInputs(7, 8000), pcgInputs(8, 8000)
	if len(p7.B) != len(p8.B) || len(p7.B[0]) != len(p8.B[0]) {
		t.Errorf("pcg inputs differ in shape")
	}
	d7, _ := schedule(7, 0, 10*time.Second)
	d8, _ := schedule(8, 0, 10*time.Second)
	for _, n := range []int{len(d7), len(d8)} {
		if n < 9000 || n > 11000 {
			t.Errorf("10 s of arrivals at %v/s drew %d requests", serveRate, n)
		}
	}
	e7, _ := editInputs(7)
	e8, _ := editInputs(8)
	if e7.L.N != e8.L.N || len(e7.L.Col) != len(e8.L.Col) || len(e7.B) != len(e8.B) {
		t.Errorf("edit inputs differ in shape")
	}
}

// fakeSolver answers batches with the sequential reference, looked up by the
// right-hand side's first element so that it keeps up with the schedule even
// under the race detector. It can corrupt every answer of a batch, or stall
// once, to check that the benchmark sees what the solver does.
type fakeSolver struct {
	b        *serveBench
	corrupt  func(batch int) bool
	stallAt  time.Time
	stallFor time.Duration
	stall    sync.Once
	mu       sync.Mutex
	batches  int
}

func (f *fakeSolver) N() int { return f.b.t.N }

func (f *fakeSolver) SolveMultiContext(_ context.Context, bs, ys [][]float64) ([][]float64, doacross.Report, error) {
	if !f.stallAt.IsZero() && time.Now().After(f.stallAt) {
		f.stall.Do(func() { time.Sleep(f.stallFor) })
	}
	f.mu.Lock()
	k := f.batches
	f.batches++
	f.mu.Unlock()
	out := make([][]float64, len(bs))
	for c, b := range bs {
		for i, rhs := range f.b.in.B {
			if rhs[0] == b[0] {
				out[c] = append([]float64(nil), f.b.ref[i]...)
			}
		}
		if f.corrupt != nil && f.corrupt(k) {
			out[c][len(out[c])/2] += 1e-9
		}
	}
	return out, doacross.Report{}, nil
}

// fakeInstance puts the serving workload's driver in front of f.
func fakeInstance(t *testing.T, f func(*serveBench) *fakeSolver) *serveInstance {
	t.Helper()
	b, err := prepareServe(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	sb := b.(*serveBench)
	solver, err := doacross.NewSolver(sb.t, sb.options()...)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := serve.NewSolveService(f(sb), doacross.ServeOptions{Window: serveWindow})
	if err != nil {
		t.Fatal(err)
	}
	return &serveInstance{b: sb, solver: solver, svc: svc}
}

func TestCorruptAnswerCounted(t *testing.T) {
	in := fakeInstance(t, func(b *serveBench) *fakeSolver {
		return &fakeSolver{b: b, corrupt: func(k int) bool { return k%5 == 2 }}
	})
	defer in.close()
	s := in.drive(300 * time.Millisecond)
	if s.attempted < 100 {
		t.Fatalf("only %d requests in 300ms", s.attempted)
	}
	if s.wrong == 0 || s.failed < s.wrong {
		t.Fatalf("corrupted answers not counted: attempted %d failed %d wrong %d (%v)", s.attempted, s.failed, s.wrong, s.firstErr)
	}
	if s.wrong == s.attempted {
		t.Fatalf("every answer counted wrong; only every fifth batch was corrupted")
	}
	if got := s.ontime(time.Hour); got > 1-float64(s.wrong)/float64(s.attempted)+1e-12 {
		t.Errorf("wrong answers counted on time: ontime %v with %d of %d wrong", got, s.wrong, s.attempted)
	}
}

func TestCorruptAnswerFailsCommand(t *testing.T) {
	workloads = append(workloads, workload{
		name: "corrupt", limit: time.Second, segments: 1,
		prepare: func(seed int64, workers int) (bench, error) {
			b, err := prepareServe(seed, workers)
			if err != nil {
				return nil, err
			}
			return corruptBench{b.(*serveBench)}, nil
		},
	})
	defer func() { workloads = workloads[:len(workloads)-1] }()
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "corrupt", "--seed", "3", "--seconds", "0.2"}, &stdout, &stderr)
	if code == 0 {
		t.Fatalf("exit code 0 with corrupted answers; stderr: %s", stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res struct {
		Correct           bool
		Attempted, Failed int
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 || res.Failed > res.Attempted {
		t.Fatalf("result %+v does not report the corrupted answers", res)
	}
}

// corruptBench is the serving workload with a solver that corrupts the
// first element of every answer.
type corruptBench struct{ *serveBench }

func (b corruptBench) build(tr *tracer, coll *doacross.MetricsCollector) (instance, error) {
	in, err := b.serveBench.build(tr, coll)
	if err != nil {
		return nil, err
	}
	si := in.(*serveInstance)
	si.svc.Close()
	si.svc, err = serve.NewSolveService(&fakeSolver{b: b.serveBench, corrupt: func(int) bool { return true }}, doacross.ServeOptions{Window: serveWindow})
	return si, err
}

func TestStallDelaysLaterRequests(t *testing.T) {
	const stall = 80 * time.Millisecond
	in := fakeInstance(t, func(b *serveBench) *fakeSolver {
		return &fakeSolver{b: b, stallAt: time.Now().Add(100 * time.Millisecond), stallFor: stall}
	})
	defer in.close()
	s := in.drive(time.Second)
	if s.failed != 0 {
		t.Fatalf("%d of %d requests failed: %v", s.failed, s.attempted, s.firstErr)
	}
	// Requests due while the solver stalled wait for it from their due
	// time: at 1000 requests/s about 80 arrive during the stall, and those
	// due in its first half wait at least half of it.
	slow := 0
	for _, l := range s.lat {
		if l >= us(stall/2) {
			slow++
		}
	}
	if slow < 20 {
		t.Fatalf("only %d requests waited %v or more behind an %v stall", slow, stall/2, stall)
	}
	if p50 := s.quantile(0.5); p50 >= us(stall/2) {
		t.Fatalf("median latency %.0fµs: the stall should delay only the requests behind it", p50)
	}
}

func TestBacklogCountsAsFailure(t *testing.T) {
	// A stall covering the end of the schedule leaves far more than one
	// batch outstanding: the rate was not sustained.
	in := fakeInstance(t, func(b *serveBench) *fakeSolver {
		return &fakeSolver{b: b, stallAt: time.Now().Add(100 * time.Millisecond), stallFor: 300 * time.Millisecond}
	})
	defer in.close()
	s := in.drive(300 * time.Millisecond)
	if s.failed < backlogLimit || !errors.Is(s.firstErr, errBacklog) {
		t.Fatalf("backlog not reported: %d of %d failed (%v)", s.failed, s.attempted, s.firstErr)
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	at := func(ns int64) time.Time { return tr.epoch.Add(time.Duration(ns)) }
	root := tr.add("op", 1, -1, at(0), at(100))
	tr.add("a", 1, root, at(10), at(40))
	tr.add("b", 1, root, at(30), at(60)) // overlaps a: the union covers 50
	got := map[string]float64{}
	for _, lt := range tr.selfTimes(1) {
		got[lt.name] = lt.selfUs * 1e3
	}
	if got["op"] != 50 || got["a"] != 30 || got["b"] != 30 {
		t.Fatalf("self times (ns) %v, want op 50, a 30, b 30", got)
	}
}

// TestBenchmarkJSON checks that the repository's BENCHMARK.json names the
// workloads and metrics this command prints, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json next to the benchmark: %v", err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the command %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), command %s (%s)", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}
