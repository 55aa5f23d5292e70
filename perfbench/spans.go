package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"doacross"
)

// span is one timed call across a layer boundary, recorded by the benchmark
// around a call into the program's public API. Times are nanoseconds since
// the tracer's epoch; parent is the index of the enclosing span (-1 for a
// root), and segment and op identify the operation the span belongs to.
type span struct {
	name       string
	segment    int
	op         int
	parent     int
	start, end int64
}

// tracer keeps spans in memory for the whole traced phase and writes them out
// at exit. A nil *tracer records nothing, so untraced code paths call it
// unconditionally. It is safe for concurrent use (the serving workload
// records from many request goroutines).
//
// Besides spans it keeps what the traced calls return for the layer
// metrics: run reports and named values.
type tracer struct {
	epoch   time.Time
	mu      sync.Mutex
	segment int // the segment being measured; set between segments
	spans   []span
	reports []doacross.Report
	notes   map[string][]float64
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), notes: make(map[string][]float64)} }

// report keeps a run report.
func (t *tracer) report(r doacross.Report) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.reports = append(t.reports, r)
	t.mu.Unlock()
}

// note keeps one value under name.
func (t *tracer) note(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.notes[name] = append(t.notes[name], v)
	t.mu.Unlock()
}

// values returns the values noted under name.
func (t *tracer) values(name string) []float64 { return t.notes[name] }

// setSegment labels the spans recorded from now on with segment i.
func (t *tracer) setSegment(i int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.segment = i
	t.mu.Unlock()
}

// mark is a tracer's record counts at one point.
type mark struct {
	spans, reports int
	notes          map[string]int
}

func (t *tracer) mark() mark {
	if t == nil {
		return mark{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	m := mark{spans: len(t.spans), reports: len(t.reports), notes: make(map[string]int)}
	for k, v := range t.notes {
		m.notes[k] = len(v)
	}
	return m
}

// reset drops everything recorded since m.
func (t *tracer) reset(m mark) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = t.spans[:m.spans]
	t.reports = t.reports[:m.reports]
	for k, v := range t.notes {
		t.notes[k] = v[:m.notes[k]]
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	s := span{name: name, segment: t.segment, op: op, parent: parent, start: start}
	t.spans = append(t.spans, s)
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// add records an already-timed span.
func (t *tracer) add(name string, op, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	s := span{name: name, segment: t.segment, op: op, parent: parent, start: int64(start.Sub(t.epoch)), end: int64(end.Sub(t.epoch))}
	t.spans = append(t.spans, s)
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// durations returns the durations (µs) of every closed span with the name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	var out []float64
	for _, s := range t.spans {
		if s.name == name && s.end > 0 {
			out = append(out, float64(s.end-s.start)/1e3)
		}
	}
	return out
}

// total returns the summed duration (µs) of the spans with the name.
func (t *tracer) total(name string) float64 {
	var sum float64
	for _, d := range t.durations(name) {
		sum += d
	}
	return sum
}

// layerTime is one span name's total and self time: a span's self time is its
// duration minus the part of its interval covered by its children.
type layerTime struct {
	name        string
	count       int
	totalUs     float64
	selfUs      float64
	selfShare   float64 // selfUs as a share of all root spans' time
	selfPerOpUs float64
}

// selfTimes aggregates self time by span name over ops operations.
func (t *tracer) selfTimes(ops int) []layerTime {
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	agg := make(map[string]*layerTime)
	var rootUs float64
	for i, s := range t.spans {
		if s.end == 0 {
			continue
		}
		d := float64(s.end - s.start)
		covered := coveredNs(s, t.spans, children[i])
		lt := agg[s.name]
		if lt == nil {
			lt = &layerTime{name: s.name}
			agg[s.name] = lt
		}
		lt.count++
		lt.totalUs += d / 1e3
		lt.selfUs += (d - covered) / 1e3
		if s.parent < 0 {
			rootUs += d / 1e3
		}
	}
	out := make([]layerTime, 0, len(agg))
	for _, lt := range agg {
		lt.selfShare = ratio(lt.selfUs, rootUs)
		lt.selfPerOpUs = ratio(lt.selfUs, float64(ops))
		out = append(out, *lt)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].name < out[b].name })
	return out
}

// coveredNs is the length of the union of the children's intervals clipped
// to the parent's interval.
func coveredNs(p span, all []span, kids []int) float64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		c := all[k]
		a, b := max(c.start, p.start), min(c.end, p.end)
		if c.end > 0 && b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
	var sum, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			sum += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		sum += curB - curA
	}
	return float64(sum)
}

// write dumps the spans as CSV: id,name,segment,op,parent,start_ns,end_ns.
func (t *tracer) write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "id,name,segment,op,parent,start_ns,end_ns")
	for i, s := range t.spans {
		fmt.Fprintf(bw, "%d,%s,%d,%d,%d,%d,%d\n", i, s.name, s.segment, s.op, s.parent, s.start, s.end)
	}
	return bw.Flush()
}
