package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one timed call into a layer, made from the benchmark's side of
// the layer boundary. Spans of one op share op; parent is -1 for an
// op's root span.
type span struct {
	op, parent int
	name       string
	start, end time.Duration // since the recorder's epoch
}

// recorder keeps spans in memory for the whole traced run; they are
// written out once the run ends. A nil recorder records nothing, so the
// untraced path runs the same code with only nil checks.
type recorder struct {
	epoch time.Time
	op    int
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now(), op: -1} }

// nextOp starts a new op; spans begun after it belong to it.
func (r *recorder) nextOp() {
	if r != nil {
		r.op++
	}
}

// begin opens a span and returns its id (-1 on a nil recorder).
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{op: r.op, parent: parent, name: name, start: time.Since(r.epoch)})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r != nil && id >= 0 {
		r.spans[id].end = time.Since(r.epoch)
	}
}

// spanStats summarizes one span name: count, median duration and median
// self time (duration minus the part of the interval its children
// cover).
type spanStats struct {
	count      int
	durUs      float64
	selfUs     float64
	totalSelfS float64
}

func (r *recorder) summarize() map[string]*spanStats {
	children := make(map[int][]int)
	for i, s := range r.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	durs := make(map[string][]float64)
	selfs := make(map[string][]float64)
	for i, s := range r.spans {
		d := s.end - s.start
		self := d - covered(r.spans, children[i])
		durs[s.name] = append(durs[s.name], float64(d)/1e3)
		selfs[s.name] = append(selfs[s.name], float64(self)/1e3)
	}
	out := make(map[string]*spanStats, len(durs))
	for name, ds := range durs {
		st := &spanStats{count: len(ds), durUs: median(ds), selfUs: median(selfs[name])}
		for _, s := range selfs[name] {
			st.totalSelfS += s / 1e6
		}
		out[name] = st
	}
	return out
}

// covered is the length of the union of the child spans' intervals.
func covered(spans []span, kids []int) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, len(kids))
	for i, k := range kids {
		iv[i] = [2]time.Duration{spans[k].start, spans[k].end}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = x
		} else if x[1] > cur[1] {
			cur[1] = x[1]
		}
	}
	return total + cur[1] - cur[0]
}

// writeTSV writes every span as op, id, parent, name, start_ns, end_ns.
func (r *recorder) writeTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "op\tid\tparent\tname\tstart_ns\tend_ns")
	for i, s := range r.spans {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%d\n", s.op, i, s.parent, s.name, s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	return bw.Flush()
}
