package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into the public API, or the whole request that
// made it. Spans of one request share req; a request's root has parent 0.
type span struct {
	name       string
	id, parent int64
	req        int64
	start, end time.Time
	selfNs     int64 // filled by finish
}

// tracer records spans in memory; a nil tracer records nothing, which is
// how the untraced run measures the end-to-end metrics.
type tracer struct {
	mu     sync.Mutex
	spans  []span
	nextID atomic.Int64
}

// newID allocates a span id, so that children can name their parent before
// the parent ends.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

func (t *tracer) add(name string, id, parent, req int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, req: req, start: start, end: end})
	t.mu.Unlock()
}

// record adds a request spanning at[0] to at[len(at)-1] whose children are
// the named public calls, call k running from at[k] to at[k+1].
func (t *tracer) record(req int64, at []time.Time, names ...string) {
	if t == nil {
		return
	}
	root := t.newID()
	for k, name := range names {
		t.add(name, t.newID(), root, req, at[k], at[k+1])
	}
	t.add("request", root, 0, req, at[0], at[len(at)-1])
}

// finish computes every span's duration and self time: its duration less
// the part of its interval that its children cover.
func (t *tracer) finish() {
	children := map[int64][]int{}
	for i, s := range t.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		dur := s.end.Sub(s.start).Nanoseconds()
		var iv [][2]int64
		for _, c := range children[s.id] {
			cs := t.spans[c]
			lo := max(cs.start.Sub(s.start).Nanoseconds(), 0)
			hi := min(cs.end.Sub(s.start).Nanoseconds(), dur)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		s.selfNs = dur - covered(iv)
	}
}

// covered returns the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, end int64 = 0, -1
	for _, v := range iv {
		lo := max(v[0], end)
		if v[1] > lo {
			total += v[1] - lo
		}
		end = max(end, v[1])
	}
	return total
}

// durations returns the sorted durations of the spans named name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, s.end.Sub(s.start))
		}
	}
	slices.Sort(out)
	return out
}

// write dumps the spans as tab-separated lines: name, id, parent, request,
// start and end in nanoseconds since the first span, and self time.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	var t0 time.Time
	for i, s := range t.spans {
		if i == 0 || s.start.Before(t0) {
			t0 = s.start
		}
	}
	fmt.Fprintln(w, "name\tid\tparent\treq\tstart_ns\tend_ns\tself_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\n", s.name, s.id, s.parent, s.req,
			s.start.Sub(t0).Nanoseconds(), s.end.Sub(t0).Nanoseconds(), s.selfNs)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
