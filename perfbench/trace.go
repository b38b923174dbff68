package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer of the program.
// Parent is the enclosing span's ID (0 for a top-level span); Key names
// the kernel or job the call served.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced passes call the same helpers at no cost.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its ID (0 from a nil tracer).
func (t *tracer) begin(name, key string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Key: key, Start: now, End: -1})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name, key string, parent int, fn func() error) error {
	id := t.begin(name, key, parent)
	err := fn()
	t.end(id)
	return err
}

// now is the tracer clock, for the wall interval the spans are judged against.
func (t *tracer) now() int64 { return time.Since(t.origin).Nanoseconds() }

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

type interval struct{ lo, hi int64 }

// covered is the length of the union of ivs clipped to [lo, hi], so
// overlapping intervals count once.
func covered(ivs []interval, lo, hi int64) int64 {
	var clip []interval
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			clip = append(clip, interval{a, b})
		}
	}
	sort.Slice(clip, func(i, j int) bool { return clip[i].lo < clip[j].lo })
	var total int64
	cur := interval{-1, -1}
	for _, iv := range clip {
		if iv.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = iv
		} else if iv.hi > cur.hi {
			cur.hi = iv.hi
		}
	}
	return total + cur.hi - cur.lo
}

// selfTimes sums, per span name, each span's duration minus the part of
// it its children cover. Children that overlap one another (concurrent
// calls) are subtracted once, never twice.
func selfTimes(spans []span) map[string]time.Duration {
	out := make(map[string]time.Duration)
	self := spanSelf(spans)
	for i, s := range spans {
		out[s.Name] += self[i]
	}
	return out
}

// spanSelf is each span's self time, in the order of spans.
func spanSelf(spans []span) []time.Duration {
	children := make(map[int][]interval)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = time.Duration(s.End - s.Start - covered(children[s.ID], s.Start, s.End))
	}
	return out
}

// unattributed is the share of lanes × [lo, hi] that no layer accounts
// for. Top-level spans (a kernel, a job) only group layer calls, so their
// self time is unattributed, and so is the time between them. lanes is
// how many top-level spans run at once: the traced pass's goroutines.
func unattributed(spans []span, lo, hi int64, lanes int) float64 {
	if hi <= lo || lanes < 1 {
		return 0
	}
	var layered time.Duration
	for i, d := range spanSelf(spans) {
		if spans[i].Parent != 0 {
			layered += d
		}
	}
	return 1 - float64(layered)/float64(int64(lanes)*(hi-lo))
}
