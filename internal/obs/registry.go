// Package obs is the verifier's zero-dependency observability layer:
// a concurrency-safe registry of counters, gauges and fixed-bucket
// histograms with Prometheus text-format exposition, a ring-buffer
// collection tracer for per-device post-mortems, and a structured event
// log replacing ad-hoc stderr notes.
//
// ERASMUS argues that attestation quality is a runtime property — QoA and
// freshness only mean something while the fleet is live — so the verifier
// must be measurable in operation, not just summarized at exit. Every
// instrument here is built for the hot paths it observes: metrics are
// lock-free atomics after registration, and every type is nil-safe, so a
// subsystem built without a registry pays one nil-check per observation
// and is bit-identical in behavior to an instrumented one (enforced by
// the fleet equivalence tests).
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one constant name="value" pair attached to a metric at
// registration (e.g. the verify shard or collection mode). Series of the
// same name with different labels form one exposition family.
type Label struct {
	Name, Value string
}

// metricKind selects the Prometheus TYPE line.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// metric is one registered series.
type metric struct {
	name   string
	help   string
	kind   metricKind
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds registered metrics. Registration takes a lock; the
// returned instruments are pure atomics. All methods are nil-safe: a nil
// registry hands out nil instruments whose operations are no-ops, so
// instrumented code needs no "is observability on?" branches.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	index   map[string]int
	hooks   []func()
}

// OnScrape registers fn to run at the start of every WritePrometheus,
// before any value is read: the place to bring counters that mirror
// state owned elsewhere up to date, so that state's hot path never
// touches the registry. fn may run concurrently with itself when scrapes
// overlap.
func (r *Registry) OnScrape(fn func()) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.hooks = append(r.hooks, fn)
	r.mu.Unlock()
}

// NewRegistry builds an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]int)}
}

// seriesKey identifies one (name, labels) series for dedup.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte('{')
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte('}')
	}
	return b.String()
}

// register installs a series, returning the existing one when (name,
// labels) was already registered — re-registration hands back the same
// instrument rather than splitting a series in the exposition.
func (r *Registry) register(m metric) metric {
	key := seriesKey(m.name, m.labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.index[key]; ok {
		return r.metrics[i]
	}
	r.index[key] = len(r.metrics)
	r.metrics = append(r.metrics, m)
	return m
}

// Counter registers (or retrieves) a monotonically increasing counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.register(metric{
		name: name, help: help, kind: kindCounter, labels: labels, c: &Counter{},
	}).c
}

// Gauge registers (or retrieves) a gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(metric{
		name: name, help: help, kind: kindGauge, labels: labels, g: &Gauge{},
	}).g
}

// Histogram registers (or retrieves) a fixed-bucket histogram. buckets
// must be sorted ascending; the implicit +Inf bucket is added. An
// existing series keeps its original buckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	h := newHistogram(buckets)
	return r.register(metric{
		name: name, help: help, kind: kindHistogram, labels: labels, h: h,
	}).h
}

// Counter is a lock-free monotonic counter. Nil-safe.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative deltas are ignored: counters are monotonic).
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a lock-free signed gauge. Nil-safe.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds d (may be negative).
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram with atomic bucket counters and a
// CAS-accumulated sum: observations from any number of goroutines never
// take a lock. Nil-safe.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf implicit
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket lists here are ≲ 20 entries, and the scan is
	// branch-predictable — cheaper than sort.SearchFloat64s' call overhead
	// on the verify hot path.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// LatencyBuckets is the default histogram layout for operation latencies
// in seconds: 1 µs to 10 s, roughly logarithmic — WAL appends live at the
// bottom, full-history batch verifications and snapshots at the top.
var LatencyBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 10,
}

// SizeBuckets is the default layout for counts (batch sizes, record
// counts): powers of two from 1 to 4096.
var SizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// formatLabels renders {a="b",c="d"} or "".
func formatLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	parts := make([]string, len(all))
	for i, l := range all {
		parts[i] = fmt.Sprintf("%s=%q", l.Name, l.Value)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func formatFloat(v float64) string {
	if v == math.Inf(1) {
		return "+Inf"
	}
	return strconv(v)
}

// strconv formats a float the way Prometheus expects (no exponent for
// integers, shortest round-trip otherwise).
func strconv(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format, grouped by family in sorted name order with series
// sorted inside each family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	hooks := append([]func(){}, r.hooks...)
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
	r.mu.Lock()
	metrics := append([]metric(nil), r.metrics...)
	r.mu.Unlock()

	// Group series into families by name. Families render in sorted name
	// order, NOT first-registration order: with labeled series created on
	// first touch from concurrent goroutines, registration order is a race
	// outcome, and two scrapes of identical state must render identical
	// bytes (modulo values) for diffing and content-hash dedup to work.
	order := make([]string, 0, len(metrics))
	families := make(map[string][]metric)
	for _, m := range metrics {
		if _, ok := families[m.name]; !ok {
			order = append(order, m.name)
		}
		families[m.name] = append(families[m.name], m)
	}
	sort.Strings(order)
	var b strings.Builder
	for _, name := range order {
		fam := families[name]
		sort.Slice(fam, func(i, j int) bool {
			return seriesKey(fam[i].name, fam[i].labels) < seriesKey(fam[j].name, fam[j].labels)
		})
		typ := "counter"
		switch fam[0].kind {
		case kindGauge:
			typ = "gauge"
		case kindHistogram:
			typ = "histogram"
		}
		if fam[0].help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", name, fam[0].help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, typ)
		for _, m := range fam {
			switch m.kind {
			case kindCounter:
				fmt.Fprintf(&b, "%s%s %d\n", name, formatLabels(m.labels), m.c.Value())
			case kindGauge:
				fmt.Fprintf(&b, "%s%s %d\n", name, formatLabels(m.labels), m.g.Value())
			case kindHistogram:
				// _count is the +Inf cumulative bucket, not the separate
				// count atomic: under concurrent observation the two can
				// transiently differ, and a scrape must stay internally
				// consistent.
				cum := uint64(0)
				for i := range m.h.counts {
					cum += m.h.counts[i].Load()
					le := "+Inf"
					if i < len(m.h.bounds) {
						le = formatFloat(m.h.bounds[i])
					}
					fmt.Fprintf(&b, "%s_bucket%s %d\n",
						name, formatLabels(m.labels, Label{"le", le}), cum)
				}
				fmt.Fprintf(&b, "%s_sum%s %s\n", name, formatLabels(m.labels), strconv(m.h.Sum()))
				fmt.Fprintf(&b, "%s_count%s %d\n", name, formatLabels(m.labels), cum)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
