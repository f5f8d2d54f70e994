// Package obs is the dependency-free telemetry subsystem of the serving
// stack: atomic counters, gauges and fixed-bucket latency histograms
// registered in a concurrency-safe Registry with Prometheus text
// exposition (prom.go), a lightweight Tracer with context-propagated span
// ids and a bounded in-RAM ring buffer (trace.go), structured-logging
// constructors over log/slog (log.go), and HTTP middleware providing
// request ids, access logs, per-route latency histograms and panic
// recovery (httpmw.go).
//
// Everything is built for hot paths: instruments are lock-free atomics,
// every method is nil-safe (a nil *Counter, *Histogram, *Tracer or
// *ActiveSpan is an inert no-op, so call sites need no "is telemetry on?"
// branching), and the observation paths allocate nothing — the
// allocation-free lookahead serving path stays allocation-free with
// telemetry detached.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing int64. The zero value is ready to
// use; all methods are safe for concurrent use and nil-safe.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (n < 0 is ignored — counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float64. The zero value is ready to use; all methods
// are safe for concurrent use and nil-safe.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by delta (which may be negative).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	addFloat(&g.bits, delta)
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// addFloat atomically adds v to a float64 stored as uint64 bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// DefBuckets are the default latency histogram bounds, in seconds: 1µs to
// 10s, wide enough for a sub-microsecond cache hit and a multi-second
// semijoin CONS⋉ scan in the same histogram.
var DefBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram counts observations into fixed buckets (upper bounds in
// ascending order, +Inf implicit) and tracks their sum. Observations are
// two atomic adds — no locks, no allocation. All methods are safe for
// concurrent use and nil-safe.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; the last is the +Inf bucket
	sum    atomic.Uint64  // float64 bits
	count  atomic.Int64
}

// NewHistogram builds a standalone histogram (not registered anywhere)
// with the given bucket upper bounds; nil or empty bounds select
// DefBuckets. Bounds must be sorted ascending.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan beats binary search here: latency observations cluster in
	// the small buckets, and ~22 comparisons worst case is noise next to the
	// two atomic RMWs.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	addFloat(&h.sum, v)
	h.count.Add(1)
}

// ObserveSince records the seconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start).Seconds())
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts are per-bucket (not
	// cumulative) counts, with one extra entry for the +Inf bucket.
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot copies the histogram's current state. Concurrent observations
// may straddle the copy; each bucket is individually consistent.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Quantile estimates the q-th quantile (0 ≤ q ≤ 1) from the bucket counts
// by linear interpolation inside the target bucket (the same estimate
// Prometheus's histogram_quantile computes). Observations beyond the last
// bound report the last bound. ok is false when the histogram is empty or
// q is out of range.
func (s HistogramSnapshot) Quantile(q float64) (float64, bool) {
	total := int64(0)
	for _, c := range s.Counts {
		total += c
	}
	if total == 0 || q < 0 || q > 1 || len(s.Bounds) == 0 {
		return 0, false
	}
	rank := q * float64(total)
	cum := int64(0)
	for i, c := range s.Counts {
		cum += c
		if float64(cum) >= rank {
			if i >= len(s.Bounds) {
				return s.Bounds[len(s.Bounds)-1], true
			}
			lo := 0.0
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := s.Bounds[i]
			if c == 0 {
				return hi, true
			}
			frac := (rank - float64(cum-c)) / float64(c)
			return lo + (hi-lo)*frac, true
		}
	}
	return s.Bounds[len(s.Bounds)-1], true
}

// Summary condenses a histogram into the operational numbers /debug
// endpoints report.
type Summary struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Summary estimates p50/p95/p99 from the bucket counts.
func (h *Histogram) Summary() Summary {
	s := h.Snapshot()
	out := Summary{Count: s.Count, Sum: s.Sum}
	out.P50, _ = s.Quantile(0.50)
	out.P95, _ = s.Quantile(0.95)
	out.P99, _ = s.Quantile(0.99)
	return out
}

// metricKind discriminates family types for exposition.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// child is one labeled instance of a family: exactly one of the fields is
// set. fn-backed children read their value at exposition time, so existing
// counters (atomic service counters, cache stats) expose without double
// bookkeeping.
type child struct {
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64
}

// family is one named metric with zero or more labeled children. A family
// with labelName "" has a single child under the empty label value.
type family struct {
	name, help string
	kind       metricKind
	labelName  string
	bounds     []float64

	mu       sync.Mutex
	children map[string]*child
	order    []string // label values in creation order
}

func (f *family) get(labelValue string) *child {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[labelValue]; ok {
		return c
	}
	c := &child{}
	switch f.kind {
	case kindCounter:
		c.counter = &Counter{}
	case kindGauge:
		c.gauge = &Gauge{}
	case kindHistogram:
		c.hist = NewHistogram(f.bounds)
	}
	f.children[labelValue] = c
	f.order = append(f.order, labelValue)
	return c
}

// Registry holds metric families and renders them (prom.go). All methods
// are safe for concurrent use; registering an existing name returns the
// existing instrument, so wiring code may run more than once per process.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{fams: make(map[string]*family)} }

// lookup returns the named family, creating it on first use. A name
// re-registered with a different kind returns nil — the caller gets an
// inert instrument instead of corrupting the exposition.
func (r *Registry) lookup(name, help string, kind metricKind, labelName string, bounds []float64) *family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind {
			return nil
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind, labelName: labelName,
		bounds: bounds, children: make(map[string]*child),
	}
	r.fams[name] = f
	return f
}

// Counter registers (or returns) a scalar counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.lookup(name, help, kindCounter, "", nil)
	if f == nil {
		return nil
	}
	return f.get("").counter
}

// Gauge registers (or returns) a scalar gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.lookup(name, help, kindGauge, "", nil)
	if f == nil {
		return nil
	}
	return f.get("").gauge
}

// CounterFunc registers a counter whose value is read from fn at
// exposition time — for counters that already live elsewhere (atomic
// service counters, cache stats) and should not be double-counted.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.registerFunc(name, help, kindCounter, fn)
}

// GaugeFunc registers a gauge whose value is read from fn at exposition
// time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.registerFunc(name, help, kindGauge, fn)
}

func (r *Registry) registerFunc(name, help string, kind metricKind, fn func() float64) {
	f := r.lookup(name, help, kind, "", nil)
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[""]; ok {
		c.fn = fn // re-binding (a fresh manager over a shared registry) wins
		c.counter, c.gauge = nil, nil
		return
	}
	f.children[""] = &child{fn: fn}
	f.order = append(f.order, "")
}

// Histogram registers (or returns) a scalar histogram; nil bounds select
// DefBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	f := r.lookup(name, help, kindHistogram, "", bounds)
	if f == nil {
		return nil
	}
	return f.get("").hist
}

// CounterVec registers (or returns) a counter family keyed by one label.
func (r *Registry) CounterVec(name, help, labelName string) *CounterVec {
	f := r.lookup(name, help, kindCounter, labelName, nil)
	if f == nil {
		return nil
	}
	return &CounterVec{f: f}
}

// GaugeVec registers (or returns) a gauge family keyed by one label.
func (r *Registry) GaugeVec(name, help, labelName string) *GaugeVec {
	f := r.lookup(name, help, kindGauge, labelName, nil)
	if f == nil {
		return nil
	}
	return &GaugeVec{f: f}
}

// HistogramVec registers (or returns) a histogram family keyed by one
// label; nil bounds select DefBuckets.
func (r *Registry) HistogramVec(name, help, labelName string, bounds []float64) *HistogramVec {
	f := r.lookup(name, help, kindHistogram, labelName, bounds)
	if f == nil {
		return nil
	}
	return &HistogramVec{f: f}
}

// CounterVec is a counter family keyed by one label. Nil-safe.
type CounterVec struct{ f *family }

// With returns the counter for a label value, creating it on first use.
// Resolve once and cache the result on hot paths.
func (v *CounterVec) With(labelValue string) *Counter {
	if v == nil || v.f == nil {
		return nil
	}
	return v.f.get(labelValue).counter
}

// SetFunc binds a label value to a function read at exposition time — for
// per-label counters that already live elsewhere (a gate's shed count)
// and should not be double-counted. Rebinding an existing label wins.
func (v *CounterVec) SetFunc(labelValue string, fn func() float64) {
	if v == nil || v.f == nil {
		return
	}
	v.f.setFunc(labelValue, fn)
}

// GaugeVec is a gauge family keyed by one label. Nil-safe.
type GaugeVec struct{ f *family }

// With returns the gauge for a label value, creating it on first use.
// Resolve once and cache the result on hot paths.
func (v *GaugeVec) With(labelValue string) *Gauge {
	if v == nil || v.f == nil {
		return nil
	}
	return v.f.get(labelValue).gauge
}

// SetFunc binds a label value to a function read at exposition time.
func (v *GaugeVec) SetFunc(labelValue string, fn func() float64) {
	if v == nil || v.f == nil {
		return
	}
	v.f.setFunc(labelValue, fn)
}

// setFunc installs (or rebinds) a fn-backed child under labelValue.
func (f *family) setFunc(labelValue string, fn func() float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[labelValue]; ok {
		c.fn = fn
		c.counter, c.gauge, c.hist = nil, nil, nil
		return
	}
	f.children[labelValue] = &child{fn: fn}
	f.order = append(f.order, labelValue)
}

// HistogramVec is a histogram family keyed by one label. Nil-safe.
type HistogramVec struct{ f *family }

// With returns the histogram for a label value, creating it on first use.
// Resolve once and cache the result on hot paths.
func (v *HistogramVec) With(labelValue string) *Histogram {
	if v == nil || v.f == nil {
		return nil
	}
	return v.f.get(labelValue).hist
}

// families returns the registered families sorted by name, and for each a
// stable copy of its label values (creation order).
func (r *Registry) families() []*family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		out = append(out, f)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
