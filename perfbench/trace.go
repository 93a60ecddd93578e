package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around an
// exported function (the program itself is not instrumented).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Op     int    `json:"op"`     // shared by every span of one op
	Name   string `json:"name"`   // layer-qualified, e.g. "thermal.solve"
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory. The replay that records them runs on one
// goroutine, so open spans form a stack. A nil *tracer records nothing.
type tracer struct {
	t0    time.Time
	op    int
	open  []int // indices into spans
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// beginOp starts a new op id for the spans that follow.
func (t *tracer) beginOp() {
	if t != nil {
		t.op++
	}
}

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Op: t.op, Name: name,
		Start: int64(time.Since(t.t0)),
	})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span and returns its duration in ms.
func (t *tracer) end() float64 {
	if t == nil {
		return 0
	}
	n := len(t.open)
	i := t.open[n-1]
	t.open = t.open[:n-1]
	t.spans[i].End = int64(time.Since(t.t0))
	return t.spans[i].ms()
}

// do runs fn inside a span.
func (t *tracer) do(name string, fn func()) float64 {
	t.begin(name)
	fn()
	return t.end()
}

// opTotals sums span durations per (op, name) and returns, per name, the
// per-op totals of every op that ran it.
func (t *tracer) opTotals() map[string][]float64 {
	sums := map[string]map[int]float64{}
	for _, s := range t.spans {
		if sums[s.Name] == nil {
			sums[s.Name] = map[int]float64{}
		}
		sums[s.Name][s.Op] += s.ms()
	}
	out := map[string][]float64{}
	for name, perOp := range sums {
		ops := make([]int, 0, len(perOp))
		for op := range perOp {
			ops = append(ops, op)
		}
		sort.Ints(ops)
		for _, op := range ops {
			out[name] = append(out[name], perOp[op])
		}
	}
	return out
}

// coverage is the share of the named root spans' time that their direct
// children cover: how much of the replay is attributed to a layer.
func (t *tracer) coverage(root string) float64 {
	roots := map[int]bool{}
	var total float64
	for _, s := range t.spans {
		if s.Name == root {
			roots[s.ID] = true
			total += s.ms()
		}
	}
	var covered float64
	for _, s := range t.spans {
		if roots[s.Parent] {
			covered += s.ms()
		}
	}
	if total == 0 {
		return 0
	}
	return covered / total
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if t == nil || path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// setLayerTimes fills every "<span>_ms" per-layer metric with the median
// per-op total of that span name.
func (t *tracer) setLayerTimes(rep *report) {
	totals := t.opTotals()
	for _, name := range []string{
		"logicsim.run", "place.place", "place.reflow", "core.eri", "core.hw",
		"power.estimate", "power.map", "power.update", "thermal.setup", "thermal.solve",
		"thermal.coarse_solve", "hotspot.detect", "timing.build", "timing.analyze",
		"congestion.estimate", "flow.analyze",
	} {
		if v := totals[name]; len(v) > 0 {
			rep.values[name+"_ms"] = median(v)
		}
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + (s[lo+1]-s[lo])*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// runtimeSampler reads the Go runtime's allocation and GC CPU counters.
type runtimeSampler struct {
	samples []metrics.Sample
}

func newRuntimeSampler() *runtimeSampler {
	return &runtimeSampler{samples: []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}}
}

// runtimeReading is one snapshot of the sampled counters.
type runtimeReading struct{ allocBytes, gcCPU, totalCPU float64 }

func (rs *runtimeSampler) read() runtimeReading {
	metrics.Read(rs.samples)
	val := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		case metrics.KindFloat64:
			return s.Value.Float64()
		}
		return 0
	}
	return runtimeReading{val(rs.samples[0]), val(rs.samples[1]), val(rs.samples[2])}
}

// setRuntime stores runtime.alloc_mb_per_op and runtime.gc_cpu_frac for the
// ops run between two readings.
func setRuntime(rep *report, a, b runtimeReading, ops int) {
	if ops > 0 {
		rep.values["runtime.alloc_mb_per_op"] = (b.allocBytes - a.allocBytes) / float64(ops) / (1 << 20)
	}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		rep.values["runtime.gc_cpu_frac"] = (b.gcCPU - a.gcCPU) / cpu
	}
}
