package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call made from the benchmark's own files: an op, or a
// call into a layer of the program inside that op.
type span struct {
	name       string
	start, end int64 // ns since the tracer's epoch
	parent     int32 // index of the enclosing span, -1 for an op
	op         int32
}

// tracer keeps one rank's spans in memory; write exports them when the
// run ends. A nil tracer records nothing, which is how the untraced runs
// call the same code.
type tracer struct {
	rank  int
	epoch time.Time
	spans []span
}

func newTracer(rank int, epoch time.Time, capacity int) *tracer {
	return &tracer{rank: rank, epoch: epoch, spans: make([]span, 0, capacity)}
}

// reset drops the spans recorded so far.
func (t *tracer) reset() {
	if t != nil {
		t.spans = t.spans[:0]
	}
}

// add records a finished span and returns its index, for children to name
// as their parent.
func (t *tracer) add(name string, start, end time.Time, parent int32, op int) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		name:   name,
		start:  start.Sub(t.epoch).Nanoseconds(),
		end:    end.Sub(t.epoch).Nanoseconds(),
		parent: parent,
		op:     int32(op),
	})
	return int32(len(t.spans) - 1)
}

// selfTimes returns each span's self time: its duration minus the part of
// it that its children cover. Children of one span never overlap (a rank
// makes one call at a time), so their durations, clipped to the parent,
// add up to the covered part.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			p := t.spans[s.parent]
			self[s.parent] -= min(s.end, p.end) - max(s.start, p.start)
		}
	}
	return self
}

// selfByName totals self time per span name.
func (t *tracer) selfByName() map[string]int64 {
	out := map[string]int64{}
	for i, self := range t.selfTimes() {
		out[t.spans[i].name] += self
	}
	return out
}

// writeChromeTrace writes the spans of all tracers as Chrome trace-event
// JSON, which Perfetto (ui.perfetto.dev) and chrome://tracing open. Each
// rank is one thread; parent and op ids ride in each event's args.
func writeChromeTrace(path string, trs ...*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	sep := func() {
		if !first {
			w.WriteByte(',')
		}
		first = false
	}
	for _, t := range trs {
		sep()
		fmt.Fprintf(w, `{"ph":"M","name":"thread_name","pid":1,"tid":%d,"args":{"name":"rank %d"}}`, t.rank, t.rank)
		for i, s := range t.spans {
			name, _ := json.Marshal(s.name)
			sep()
			fmt.Fprintf(w, `{"ph":"X","name":%s,"pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"op":%d}}`,
				name, t.rank, float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.parent, s.op)
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
