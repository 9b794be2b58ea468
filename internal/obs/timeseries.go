package obs

import (
	"sync"
)

// The simulated-clock time-series layer. A campaign runs on a
// simulated clock (minutes since the campaign epoch), and the paper's
// core signals — diurnal throughput dips, per-interconnect congestion
// onset — are functions of that clock, not of wall time. A Sampler
// turns the registry's point-in-time metrics into time series by
// snapshotting every counter, gauge, and histogram count once per
// simulated step, driven by the collection watermark that
// platform.CollectStreamCtx publishes with each chunk: chunks arrive in
// schedule order, their watermarks are monotone, so Advance observes a
// monotone simulated clock no matter how many workers produced the
// chunks and the sampled series are deterministic modulo the metric
// values themselves.
//
// Series are ring-buffered: a fixed point capacity per series bounds
// memory for open-ended campaigns (ROADMAP item 2's long-running
// service), with evicted points counted so sinks can disclose
// truncation instead of silently forgetting the campaign's start.

// DefaultSampleStepMin is the sampling cadence when EnableTimeSeries is
// given a non-positive step: one sample per simulated hour, the
// resolution of the paper's Fig-5 diurnal analysis.
const DefaultSampleStepMin = 60

// DefaultSeriesCap is the per-series ring capacity when
// EnableTimeSeries is given a non-positive capacity: at one point per
// simulated hour this retains ~85 simulated days.
const DefaultSeriesCap = 2048

// Point is one sample: the metric's value at a simulated minute.
type Point struct {
	// Minute is the simulated-clock stamp (minutes since campaign
	// epoch); points within one series are strictly increasing.
	Minute int `json:"m"`
	// Value is the sampled value: cumulative count for counters and
	// histogram counts, the current level for gauges.
	Value float64 `json:"v"`
}

// Series is the ring-buffered sample history of one metric. All access
// goes through the owning Sampler's lock. The ring grows geometrically
// up to max, so a short campaign never pays for the full capacity.
type Series struct {
	kind    string // "counter", "gauge", "histogram"
	ring    []Point
	max     int // capacity ceiling for the ring
	head    int // index of the oldest retained point
	n       int // retained points
	evicted int // points dropped off the ring's tail
}

// Points returns the retained samples, oldest first.
func (s *Series) Points() []Point {
	out := make([]Point, s.n)
	for i := 0; i < s.n; i++ {
		out[i] = s.ring[(s.head+i)%len(s.ring)]
	}
	return out
}

// Kind reports the sampled metric's kind ("counter", "gauge",
// "histogram").
func (s *Series) Kind() string { return s.kind }

// Evicted reports how many points fell off the ring.
func (s *Series) Evicted() int { return s.evicted }

func (s *Series) push(p Point) {
	if s.n == len(s.ring) && len(s.ring) < s.max {
		grown := 2 * len(s.ring)
		if grown == 0 {
			grown = 16
		}
		if grown > s.max {
			grown = s.max
		}
		ring := make([]Point, grown)
		for i := 0; i < s.n; i++ {
			ring[i] = s.ring[(s.head+i)%len(s.ring)]
		}
		s.ring, s.head = ring, 0
	}
	if s.n < len(s.ring) {
		s.ring[(s.head+s.n)%len(s.ring)] = p
		s.n++
		return
	}
	s.ring[s.head] = p
	s.head = (s.head + 1) % len(s.ring)
	s.evicted++
}

// Deltas returns per-step increments between consecutive retained
// points — the windowed view a Fig-5-style diurnal statistic consumes
// for cumulative series (tests collected per simulated hour, retries
// per hour). The result has one fewer entry than Points; gauge series
// yield signed level changes.
func (s *Series) Deltas() []Point {
	pts := s.Points()
	if len(pts) < 2 {
		return nil
	}
	out := make([]Point, len(pts)-1)
	for i := 1; i < len(pts); i++ {
		out[i-1] = Point{Minute: pts[i].Minute, Value: pts[i].Value - pts[i-1].Value}
	}
	return out
}

// Window returns the retained points with from <= Minute < to, oldest
// first.
func (s *Series) Window(from, to int) []Point {
	var out []Point
	for _, p := range s.Points() {
		if p.Minute >= from && p.Minute < to {
			out = append(out, p)
		}
	}
	return out
}

// Sampler samples the registry on the simulated clock. Obtain one with
// Registry.EnableTimeSeries; a nil *Sampler is the disabled layer and
// every method on it is a no-op, so instrumented code calls
// reg.TimeSeries().Advance(...) unconditionally.
type Sampler struct {
	reg     *Registry
	stepMin int
	cap     int
	filter  func(name string) bool

	mu     sync.Mutex
	series map[string]*Series
	// sampled is the last simulated minute a sample was stamped at
	// (-1 before the first sample).
	sampled int
}

// EnableTimeSeries attaches a simulated-clock sampler to the registry
// and returns it; the first call wins and later calls return the
// existing sampler. stepMin is the sampling cadence in simulated
// minutes and capacity the per-series ring size (non-positive values
// take the defaults). filter, when non-nil, selects which metric names
// are sampled — sampling every per-shard gauge of a 16-shard campaign
// is rarely what a dashboard wants. On a nil registry it returns nil.
func (r *Registry) EnableTimeSeries(stepMin, capacity int, filter func(name string) bool) *Sampler {
	if r == nil {
		return nil
	}
	if stepMin <= 0 {
		stepMin = DefaultSampleStepMin
	}
	if capacity <= 0 {
		capacity = DefaultSeriesCap
	}
	s := &Sampler{
		reg: r, stepMin: stepMin, cap: capacity, filter: filter,
		series: make(map[string]*Series), sampled: -1,
	}
	if r.sampler.CompareAndSwap(nil, s) {
		return s
	}
	return r.sampler.Load()
}

// TimeSeries returns the attached sampler (nil when none, or on a nil
// registry).
func (r *Registry) TimeSeries() *Sampler {
	if r == nil {
		return nil
	}
	return r.sampler.Load()
}

// StepMinutes returns the sampling cadence (0 on the nil sampler).
func (s *Sampler) StepMinutes() int {
	if s == nil {
		return 0
	}
	return s.stepMin
}

// Advance moves the simulated clock to watermark (minutes since the
// campaign epoch) and stamps one sample at every step boundary crossed
// since the previous call — a chunk whose watermark jumps several
// simulated hours yields several points, so consumers always see >= 1
// point per elapsed step. Regressing watermarks are ignored. Safe for
// use from the streaming sink goroutine; a no-op on the nil sampler.
func (s *Sampler) Advance(watermark int) {
	if s == nil || watermark < 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// First boundary strictly after the last stamped sample; sample
	// boundaries are multiples of the step so the series is a fixed
	// simulated-time grid regardless of chunk sizes.
	next := (s.sampled/s.stepMin + 1) * s.stepMin
	if s.sampled < 0 {
		next = s.stepMin
	}
	if next > watermark {
		return
	}
	// Every boundary in (sampled, watermark] observes the same metric
	// values — the registry is only knowable "now" — so sweep it once
	// and replicate the sample at each crossed boundary rather than
	// re-walking the registry per boundary (a single-chunk campaign can
	// cross hundreds of simulated hours in one call).
	s.sampleRangeLocked(next, watermark)
}

// Finalize stamps one last sample at the given simulated minute if it
// is past the last stamped sample — so a campaign whose final watermark
// lands between boundaries still records its closing totals. No-op on
// the nil sampler.
func (s *Sampler) Finalize(watermark int) {
	if s == nil || watermark < 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if watermark > s.sampled {
		s.sampleRangeLocked(watermark, watermark)
	}
}

// sampleRangeLocked sweeps the registry once and stamps a sample of
// every selected metric at each step boundary from `from` through the
// largest boundary <= to (from itself counts as a boundary). Caller
// holds s.mu.
func (s *Sampler) sampleRangeLocked(from, to int) {
	r := s.reg
	r.mu.Lock()
	for name, c := range r.counters {
		s.recordRangeLocked(name, "counter", from, to, float64(c.Value()))
	}
	for name, g := range r.gauges {
		s.recordRangeLocked(name, "gauge", from, to, float64(g.Value()))
	}
	for name, h := range r.histograms {
		s.recordRangeLocked(name, "histogram", from, to, float64(h.Count()))
	}
	r.mu.Unlock()
	s.sampled = from + (to-from)/s.stepMin*s.stepMin
}

func (s *Sampler) recordRangeLocked(name, kind string, from, to int, v float64) {
	if s.filter != nil && !s.filter(name) {
		return
	}
	sr := s.series[name]
	if sr == nil {
		sr = &Series{kind: kind, max: s.cap}
		s.series[name] = sr
	}
	sr.pushRun(from, s.stepMin, (to-from)/s.stepMin+1, v)
}

// pushRun appends count points at minutes from, from+step, ... with
// the same value — the replicated samples of a multi-boundary Advance.
// It grows the ring to the needed size in one step and bulk-fills when
// no eviction is in play, falling back to per-point pushes otherwise.
func (s *Series) pushRun(from, step, count int, v float64) {
	if need := s.n + count; need > len(s.ring) && len(s.ring) < s.max {
		grown := 2 * len(s.ring)
		if grown < 16 {
			grown = 16
		}
		for grown < need {
			grown *= 2
		}
		if grown > s.max {
			grown = s.max
		}
		ring := make([]Point, grown)
		for i := 0; i < s.n; i++ {
			ring[i] = s.ring[(s.head+i)%len(s.ring)]
		}
		s.ring, s.head = ring, 0
	}
	if s.head == 0 && s.n+count <= len(s.ring) {
		for i := 0; i < count; i++ {
			s.ring[s.n+i] = Point{Minute: from + i*step, Value: v}
		}
		s.n += count
		return
	}
	for i := 0; i < count; i++ {
		s.push(Point{Minute: from + i*step, Value: v})
	}
}

// Series returns the named series (nil when the metric was never
// sampled, or on the nil sampler). The returned Series must not be
// read concurrently with Advance; it is meant for after the sampled
// work has completed.
func (s *Sampler) Series(name string) *Series {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.series[name]
}

// SeriesDump is one exported time series.
type SeriesDump struct {
	Kind string `json:"kind"`
	// StepMinutes is the sampling cadence on the simulated clock.
	StepMinutes int     `json:"step_minutes"`
	Points      []Point `json:"points"`
	// Evicted counts points dropped off the ring (0 = complete
	// history).
	Evicted int `json:"evicted,omitempty"`
}

// DumpSeries exports every sampled series keyed by metric name (nil on
// the nil sampler).
func (s *Sampler) DumpSeries() map[string]SeriesDump {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]SeriesDump, len(s.series))
	for name, sr := range s.series {
		out[name] = SeriesDump{
			Kind: sr.kind, StepMinutes: s.stepMin,
			Points: sr.Points(), Evicted: sr.evicted,
		}
	}
	return out
}
