// Package metrics is the instrumentation layer shared by the CLIs and
// the meshserved daemon: lock-free counters and gauges, fixed-bucket
// latency histograms with quantile estimation, and two expositions —
// a plain-text dump for /metrics and an expvar mirror for /debug/vars.
// Everything is stdlib-only and cheap enough to sit on query hot paths
// (one atomic add per event).
package metrics

import (
	"expvar"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous level that can move both ways (queue
// depths, in-flight requests, registry sizes).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets are the latency histogram upper bounds: powers of two
// from 1µs to ~4.2s plus a catch-all, so three decades of request
// latencies land with ≤2x relative error — enough for p50/p99 load
// reporting without per-observation allocation.
var histBuckets = func() []time.Duration {
	var b []time.Duration
	for d := time.Microsecond; d <= 4*time.Second; d *= 2 {
		b = append(b, d)
	}
	return b
}()

// Histogram tracks a latency distribution in fixed exponential
// buckets. All methods are safe for concurrent use.
type Histogram struct {
	counts []atomic.Uint64 // one per bucket, plus overflow at the end
	sum    atomic.Int64    // total nanoseconds observed
	n      atomic.Uint64
}

func newHistogram() *Histogram {
	return &Histogram{counts: make([]atomic.Uint64, len(histBuckets)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := sort.Search(len(histBuckets), func(i int) bool { return d <= histBuckets[i] })
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
	h.n.Add(1)
}

// Count returns how many durations have been observed.
func (h *Histogram) Count() uint64 { return h.n.Load() }

// Sum returns the total of all observed durations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Mean returns the average observed duration (zero when empty).
func (h *Histogram) Mean() time.Duration {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(uint64(h.sum.Load()) / n)
}

// Quantile estimates the q-quantile (0 < q <= 1) as the upper bound of
// the bucket holding the q-th observation — an overestimate by at most
// one bucket width (2x). It returns zero when nothing was observed.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.n.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i := range h.counts {
		seen += h.counts[i].Load()
		if seen >= rank {
			if i < len(histBuckets) {
				return histBuckets[i]
			}
			return 2 * histBuckets[len(histBuckets)-1] // overflow bucket
		}
	}
	return 2 * histBuckets[len(histBuckets)-1]
}

// Registry is a named set of instruments. Instruments are created on
// first use and live for the registry's lifetime; lookups take a
// read lock, updates on the returned instrument are lock-free. Callers
// on hot paths should resolve their instrument once and keep the
// pointer.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// defaultRegistry is the process-wide registry the library hot paths
// (the reach cache) and the daemon share.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		h = newHistogram()
		r.histograms[name] = h
	}
	return h
}

// snapshot returns every instrument's value keyed by name, with
// histograms flattened to count/mean/p50/p99 sub-keys.
func (r *Registry) snapshot() map[string]any {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]any, len(r.counters)+len(r.gauges)+4*len(r.histograms))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.histograms {
		out[name+"_count"] = h.Count()
		out[name+"_mean_us"] = h.Mean().Microseconds()
		out[name+"_p50_us"] = h.Quantile(0.50).Microseconds()
		out[name+"_p99_us"] = h.Quantile(0.99).Microseconds()
	}
	return out
}

// WriteText renders every instrument as "name value" lines in sorted
// order — the /metrics exposition.
func (r *Registry) WriteText(w io.Writer) error {
	snap := r.snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := fmt.Fprintf(w, "%s %v\n", name, snap[name]); err != nil {
			return err
		}
	}
	return nil
}

// expvarOnce guards the one-time expvar publication: expvar.Publish
// panics on duplicate names, and tests may build many servers per
// process.
var expvarOnce sync.Once

// PublishExpvar mirrors the registry under one expvar name, so
// /debug/vars shows a live "extmesh" map next to the runtime's
// memstats. Safe to call repeatedly; only the first call publishes.
func (r *Registry) PublishExpvar() {
	expvarOnce.Do(func() {
		expvar.Publish("extmesh", expvar.Func(func() any { return r.snapshot() }))
	})
}
