package telemetry

import (
	"math"
	"sync"
	"sync/atomic"
)

// Registry is a concurrent metrics registry. Metric handles are looked up
// once (allocating only on first registration) and then updated lock-free
// on the hot path. A nil *Registry is the disabled registry: every lookup
// returns a nil handle whose methods are no-ops.
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: map[string]*Counter{},
		gauges: map[string]*Gauge{},
		hists:  map[string]*Histogram{},
	}
}

// Counter returns the named counter, registering it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counts[name]
	if c == nil {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named fixed-bucket histogram, registering it with
// the given upper bounds on first use. Bounds must be sorted ascending;
// an implicit overflow bucket catches everything above the last bound.
// Later lookups of an existing histogram ignore the bounds argument.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		b := make([]float64, len(bounds))
		copy(b, bounds)
		h = &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
		r.hists[name] = h
	}
	return h
}

// Counter is a monotonically increasing integer. Nil-safe.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
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

// Gauge is a settable integer level. Nil-safe.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the current level (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Max raises the gauge to v if v is greater than the current level.
func (g *Gauge) Max(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Histogram counts observations into fixed buckets. Nil-safe. Observe is
// lock-free: per-bucket atomic adds plus an atomic bit-packed sum.
type Histogram struct {
	bounds  []float64
	counts  []int64 // len(bounds)+1; last is the overflow bucket
	count   atomic.Int64
	sumBits atomic.Uint64 // math.Float64bits of the running sum
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	atomic.AddInt64(&h.counts[i], 1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// DurationBuckets are exponential nanosecond bounds (1µs … 10s) suited to
// latency histograms fed with time.Duration nanoseconds.
var DurationBuckets = []float64{
	1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
}

// SizeBuckets are exponential byte-size bounds (64 B … 16 MiB) suited to
// message-size histograms.
var SizeBuckets = []float64{
	64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 16 << 20,
}

// Snapshot is a deterministic point-in-time copy of a registry. Maps
// marshal with sorted keys, so two snapshots of identical state produce
// identical JSON.
type Snapshot struct {
	Counters   map[string]int64    `json:"counters,omitempty"`
	Gauges     map[string]int64    `json:"gauges,omitempty"`
	Histograms map[string]HistSnap `json:"histograms,omitempty"`
}

// HistSnap is one histogram's snapshot: Counts[i] observations at or
// below Bounds[i], with Counts[len(Bounds)] the overflow bucket. P50/P95/
// P99 are bucket-interpolated quantile estimates (see Quantile) rendered
// alongside the raw buckets so /metrics is readable without
// post-processing; they are 0 when the histogram is empty.
type HistSnap struct {
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	P50    float64   `json:"p50"`
	P95    float64   `json:"p95"`
	P99    float64   `json:"p99"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
}

// Quantile estimates the q-quantile (0 < q ≤ 1) by linear interpolation
// inside the bucket holding the target rank, the standard fixed-bucket
// estimate. The first bucket interpolates from 0; a rank landing in the
// unbounded overflow bucket is clamped to the last finite bound. An empty
// snapshot returns 0.
func (h HistSnap) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var cum float64
	for i, c := range h.Counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i >= len(h.Bounds) {
			return h.Bounds[len(h.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.Bounds[i-1]
		}
		return lo + (h.Bounds[i]-lo)*(rank-prev)/float64(c)
	}
	return h.Bounds[len(h.Bounds)-1]
}

// Snapshot copies every metric's current value. Concurrent updates keep
// running; each individual metric is read atomically. A nil registry
// snapshots to the zero Snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counts) > 0 {
		s.Counters = make(map[string]int64, len(r.counts))
		for n, c := range r.counts {
			s.Counters[n] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for n, g := range r.gauges {
			s.Gauges[n] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistSnap, len(r.hists))
		for n, h := range r.hists {
			hs := HistSnap{
				Count:  h.count.Load(),
				Sum:    math.Float64frombits(h.sumBits.Load()),
				Bounds: append([]float64(nil), h.bounds...),
				Counts: make([]int64, len(h.counts)),
			}
			for i := range h.counts {
				hs.Counts[i] = atomic.LoadInt64(&h.counts[i])
			}
			hs.P50 = hs.Quantile(0.50)
			hs.P95 = hs.Quantile(0.95)
			hs.P99 = hs.Quantile(0.99)
			s.Histograms[n] = hs
		}
	}
	return s
}
