package main

import (
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call from the benchmark into a layer of the
// program. Parent is the ID of the span that made the call (0 for the
// run's root); run.py stamps every span with its run's ID.
type Span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Self   float64 `json:"self_s"`
}

// tracer keeps a run's spans and layer counts in memory until the run
// ends. The program itself is not instrumented: every span wraps a call
// the benchmark makes. A nil *tracer records nothing, so an untraced
// run makes exactly the same calls.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []Span
	values map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), values: map[string]float64{}}
}

// start opens a span under parent and returns its ID. It may be called
// from any goroutine.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Start: now, End: now})
	return id
}

// end closes the span start returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add accumulates a layer value that is not a duration: a count, a
// rate or an allocation volume.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.values[name] += v
	t.mu.Unlock()
}

// set records a layer value that is not summed.
func (t *tracer) set(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.values[name] = v
	t.mu.Unlock()
}

// runtimeSample reads the process-wide allocation and GC CPU counters.
// With tracing off it reads nothing.
func (t *tracer) runtimeSample() (allocBytes, gcCPU float64) {
	if t == nil {
		return 0, 0
	}
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()), s[1].Value.Float64()
}

// allocMB adds the heap allocated since allocBytes (from runtimeSample)
// to the named value, in MiB.
func (t *tracer) allocMB(name string, allocBytes float64) {
	if t == nil {
		return
	}
	now, _ := t.runtimeSample()
	t.add(name, (now-allocBytes)/(1<<20))
}

// finish fills in every span's self time — its duration minus the part
// of it that its children cover — and returns the spans with the layer
// metrics: "<span name>_s" is the summed duration of every span of
// that name, except for platform.collect, whose metric is its self
// time (collection without the time spent in the benchmark's sink).
// Spans named "bench.*" structure the tree and yield no metric.
func (t *tracer) finish() ([]Span, map[string]float64) {
	children := map[int][]Span{}
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	layers := map[string]float64{}
	for k, v := range t.values {
		layers[k] = v
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = s.End - s.Start - covered(s.Start, s.End, children[s.ID])
		if strings.HasPrefix(s.Name, "bench.") {
			continue
		}
		if s.Name == "platform.collect" {
			layers[s.Name+"_s"] += s.Self
		} else {
			layers[s.Name+"_s"] += s.End - s.Start
		}
	}
	return t.spans, layers
}

// covered returns how much of [lo, hi] the union of the spans covers.
func covered(lo, hi float64, spans []Span) float64 {
	iv := make([][2]float64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			iv = append(iv, [2]float64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, reach float64
	reach = lo
	for _, x := range iv {
		if x[1] <= reach {
			continue
		}
		sum += x[1] - max(x[0], reach)
		reach = x[1]
	}
	return sum
}
