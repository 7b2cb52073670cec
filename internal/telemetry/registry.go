package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one name="value" dimension of a metric series.
type Label struct {
	Key, Value string
}

// Registry holds named metric families and renders them in the
// Prometheus text exposition format. Metric lookups take a read lock;
// updates on the returned Counter/Gauge/Histogram handles are single
// atomic operations, so hot paths should hold onto the handle rather
// than re-looking it up per event.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	order    []string
}

// family is every series sharing one metric name.
type family struct {
	name, help, typ string
	series          map[string]any // Counter | Gauge | gaugeFunc | Histogram, by label signature
	order           []string
	labels          map[string][]Label
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter is a monotonically increasing int64 metric.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by delta (which must be non-negative).
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 metric that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// gaugeFunc is a gauge computed at scrape time.
type gaugeFunc func() float64

// histShards bounds write contention on one histogram series: each
// observation lands in a shard picked by hashing the observed value,
// and shards are summed only at scrape time.
const histShards = 8

type histShard struct {
	count atomic.Int64
	sum   atomic.Uint64 // float64 bits
	bins  []atomic.Int64
}

// Histogram is a fixed-bucket histogram with lock-free observation.
// Buckets follow Prometheus "le" semantics: bin i counts observations
// v <= bounds[i], plus one overflow bin for +Inf.
type Histogram struct {
	bounds []float64
	shards [histShards]*histShard
	// ex holds one exemplar per bucket (last write wins) linking the
	// bucket to a concrete trace ID — how an operator goes from "the
	// p99 bucket is hot" to one inspectable trace.
	ex []atomic.Pointer[Exemplar]
}

// Exemplar ties one observation to the trace that produced it.
type Exemplar struct {
	Value     float64
	TraceID   TraceID
	UnixNanos int64
}

func newHistogram(bounds []float64) *Histogram {
	h := &Histogram{bounds: bounds, ex: make([]atomic.Pointer[Exemplar], len(bounds)+1)}
	for i := range h.shards {
		h.shards[i] = &histShard{bins: make([]atomic.Int64, len(bounds)+1)}
	}
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Cheap stateless shard selection: mix the value's bits so
	// concurrent observers of different values rarely collide.
	x := math.Float64bits(v)
	x ^= x >> 33
	x *= 0x9e3779b97f4a7c15
	sh := h.shards[(x>>59)%histShards]

	i := sort.SearchFloat64s(h.bounds, v)
	sh.bins[i].Add(1)
	sh.count.Add(1)
	for {
		old := sh.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if sh.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveExemplar records one value and, when id is non-zero, stamps
// the bucket the value lands in with an exemplar linking to that trace.
// Last write wins per bucket: recency beats completeness for "show me
// a trace from this bucket".
func (h *Histogram) ObserveExemplar(v float64, id TraceID) {
	h.Observe(v)
	if id == 0 {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.ex[i].Store(&Exemplar{Value: v, TraceID: id, UnixNanos: time.Now().UnixNano()})
}

// BucketExemplar returns the exemplar for bucket i (same indexing as
// binCounts: len(bounds) is the +Inf bucket), or nil.
func (h *Histogram) BucketExemplar(i int) *Exemplar {
	if i < 0 || i >= len(h.ex) {
		return nil
	}
	return h.ex[i].Load()
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for _, sh := range h.shards {
		n += sh.count.Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	var s float64
	for _, sh := range h.shards {
		s += math.Float64frombits(sh.sum.Load())
	}
	return s
}

// binCounts sums the per-shard bins (len(bounds)+1 entries).
func (h *Histogram) binCounts() []int64 {
	out := make([]int64, len(h.bounds)+1)
	for _, sh := range h.shards {
		for i := range sh.bins {
			out[i] += sh.bins[i].Load()
		}
	}
	return out
}

// ExponentialBuckets returns n strictly increasing bucket bounds
// starting at start and growing by factor — the log-spaced grid latency
// histograms want. start must be positive and factor > 1.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("telemetry: invalid exponential buckets (start=%v factor=%v n=%d)", start, factor, n))
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DefaultLatencyBuckets is the registry's standard latency grid:
// 18 log-spaced buckets from 10µs to ~1.3s (doubling).
func DefaultLatencyBuckets() []float64 {
	return ExponentialBuckets(10e-6, 2, 18)
}

// canonical sorts labels by key and renders the series signature
// (`{k1="v1",k2="v2"}`, or "" with no labels).
func canonical(labels []Label) (string, []Label) {
	if len(labels) == 0 {
		return "", nil
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(a, b int) bool { return ls[a].Key < ls[b].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String(), ls
}

// Exposition escapers, built once: a Replacer is safe for concurrent
// use and returns a string with nothing to escape as it is, where
// building one per value allocated for every label.
var (
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
)

// escapeLabel escapes a label value: backslash, quote and newline.
func escapeLabel(v string) string { return labelEscaper.Replace(v) }

// escapeHelp escapes HELP text per the exposition format: backslash
// and newline only (quotes are legal in help).
func escapeHelp(v string) string { return helpEscaper.Replace(v) }

// lookup returns the series for (name, labels), creating family and
// series via make on a miss. It panics when the name is already
// registered with a different metric type: that is a programming
// error, not a runtime condition.
func (r *Registry) lookup(name, help, typ string, labels []Label, make func() any) any {
	sig, ls := canonical(labels)
	r.mu.RLock()
	f := r.families[name]
	if f != nil {
		if s, ok := f.series[sig]; ok {
			ft := f.typ
			r.mu.RUnlock()
			if ft != typ {
				panic(fmt.Sprintf("telemetry: metric %q re-registered as %s (was %s)", name, typ, ft))
			}
			return s
		}
	}
	r.mu.RUnlock()

	r.mu.Lock()
	defer r.mu.Unlock()
	f = r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ,
			series: map[string]any{}, labels: map[string][]Label{}}
		r.families[name] = f
		r.order = append(r.order, name)
	} else if f.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %q re-registered as %s (was %s)", name, typ, f.typ))
	}
	if s, ok := f.series[sig]; ok {
		return s
	}
	s := make()
	f.series[sig] = s
	f.labels[sig] = ls
	f.order = append(f.order, sig)
	return s
}

// Counter returns the counter series for (name, labels), creating it on
// first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.lookup(name, help, "counter", labels, func() any { return &Counter{} }).(*Counter)
}

// Gauge returns the gauge series for (name, labels), creating it on
// first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.lookup(name, help, "gauge", labels, func() any { return &Gauge{} }).(*Gauge)
}

// GaugeFunc registers a gauge computed by fn at scrape time — for
// values derived from live state (image counts, cache efficiency)
// rather than accumulated. Re-registering the same series replaces fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	sig, ls := canonical(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: "gauge",
			series: map[string]any{}, labels: map[string][]Label{}}
		r.families[name] = f
		r.order = append(r.order, name)
	} else if f.typ != "gauge" {
		panic(fmt.Sprintf("telemetry: metric %q re-registered as gauge (was %s)", name, f.typ))
	}
	if _, ok := f.series[sig]; !ok {
		f.order = append(f.order, sig)
		f.labels[sig] = ls
	}
	f.series[sig] = gaugeFunc(fn)
}

// Histogram returns the histogram series for (name, labels) with the
// given bucket bounds, creating it on first use. Bounds must be
// strictly increasing; later calls for an existing series ignore
// bounds.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q bounds not strictly increasing at %d", name, i))
		}
	}
	if len(bounds) == 0 {
		panic(fmt.Sprintf("telemetry: histogram %q needs at least one bound", name))
	}
	bcopy := append([]float64(nil), bounds...)
	return r.lookup(name, help, "histogram", labels, func() any { return newHistogram(bcopy) }).(*Histogram)
}

// formatFloat renders a sample value the way Prometheus expects.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteText renders every registered metric in the Prometheus text
// exposition format (version 0.0.4). Exemplars are omitted: 0.0.4
// scrapers reject the suffix, so they live only in WriteOpenMetrics.
func (r *Registry) WriteText(w io.Writer) error {
	return r.write(w, false)
}

// WriteOpenMetrics renders the same families with OpenMetrics-style
// bucket exemplars (`... # {trace_id="<id>"} <value> <ts>`) and a
// closing `# EOF` marker. Serve it on Accept: application/openmetrics-text
// or an explicit query opt-in; plain scrapes keep getting WriteText.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	if err := r.write(w, true); err != nil {
		return err
	}
	_, err := io.WriteString(w, "# EOF\n")
	return err
}

func (r *Registry) write(w io.Writer, exemplars bool) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, name := range r.order {
		f := r.families[name]
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, escapeHelp(f.help), f.name, f.typ); err != nil {
			return err
		}
		for _, sig := range f.order {
			if err := writeSeries(w, f, sig, exemplars); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, sig string, exemplars bool) error {
	switch s := f.series[sig].(type) {
	case *Counter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, sig, s.Value())
		return err
	case *Gauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, sig, formatFloat(s.Value()))
		return err
	case gaugeFunc:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, sig, formatFloat(s()))
		return err
	case *Histogram:
		return writeHistogram(w, f, sig, s, exemplars)
	default:
		return fmt.Errorf("telemetry: unknown series type %T", s)
	}
}

// writeHistogram renders the _bucket/_sum/_count triple of one series.
func writeHistogram(w io.Writer, f *family, sig string, h *Histogram, exemplars bool) error {
	base := f.labels[sig]
	bins := h.binCounts()
	var cum int64
	for i, bound := range h.bounds {
		cum += bins[i]
		var ex *Exemplar
		if exemplars {
			ex = h.BucketExemplar(i)
		}
		if err := writeBucket(w, f.name, base, formatFloat(bound), cum, ex); err != nil {
			return err
		}
	}
	cum += bins[len(bins)-1]
	var ex *Exemplar
	if exemplars {
		ex = h.BucketExemplar(len(bins) - 1)
	}
	if err := writeBucket(w, f.name, base, "+Inf", cum, ex); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, sig, formatFloat(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, sig, cum)
	return err
}

func writeBucket(w io.Writer, name string, base []Label, le string, cum int64, ex *Exemplar) error {
	withLE := append(append([]Label(nil), base...), Label{"le", le})
	// The "le" label is rendered last (Prometheus convention), not
	// re-sorted into the base labels.
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range withLE {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, l.Key, escapeLabel(l.Value))
	}
	b.WriteByte('}')
	if ex != nil {
		_, err := fmt.Fprintf(w, "%s_bucket%s %d # {trace_id=\"%s\"} %s %s\n",
			name, b.String(), cum, ex.TraceID,
			formatFloat(ex.Value),
			formatFloat(float64(ex.UnixNanos)/1e9))
		return err
	}
	_, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, b.String(), cum)
	return err
}
