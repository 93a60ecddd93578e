// Command perfbench is the repository benchmark. It generates its inputs from
// a seed, drives the library's exported API from one process, checks every
// operation's output against an oracle, and prints one JSON result line
// whose metrics are named in BENCHMARK.json at the repository root.
//
// Run it through run.sh from the repository root (it builds the binary
// first):
//
//	bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 32 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1 it
// carries the per-layer metrics of a traced run, whose spans are also written
// as JSON lines to --spans. See README.md in this directory.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// spans is the JSON-lines file the traced run writes its spans to ("" =
	// keep them in memory only).
	spans string
	// tiny shrinks every input to test size (the self-test).
	tiny bool
	// perturb corrupts the reference an op is checked against, so the
	// self-test can show the oracle catches a wrong output.
	perturb bool
}

// workloadFunc runs one workload and fills the report.
type workloadFunc func(ctx context.Context, o options, rep *report) error

var workloads = map[string]workloadFunc{
	"paper-sweep":      runPaperSweep,
	"adaptive-explore": runAdaptiveExplore,
	"serve-mix":        runServeMix,
}

// metricDef names one reported metric and its unit. The lists below are the
// metric contract; BENCHMARK.json at the repository root lists the same
// names (the self-test checks that).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_mb", "MiB"},
	{"op_ms_p50", "ms"},
}

var perLayer = []metricDef{
	{"logicsim.run_ms", "ms"},
	{"place.place_ms", "ms"},
	{"place.reflow_ms", "ms"},
	{"place.moved_cells", "count"},
	{"core.eri_ms", "ms"},
	{"core.hw_ms", "ms"},
	{"core.candidates", "count"},
	{"core.triaged_frac", "ratio"},
	{"core.coarse_solves", "count"},
	{"core.exact_solves", "count"},
	{"core.exact_per_front_point", "ratio"},
	{"power.estimate_ms", "ms"},
	{"power.map_ms", "ms"},
	{"power.update_ms", "ms"},
	{"power.dirty_nets", "count"},
	{"thermal.setup_ms", "ms"},
	{"thermal.solve_ms", "ms"},
	{"thermal.cg_iters", "count"},
	{"thermal.unknowns", "count"},
	{"thermal.coarse_solve_ms", "ms"},
	{"hotspot.detect_ms", "ms"},
	{"timing.build_ms", "ms"},
	{"timing.analyze_ms", "ms"},
	{"congestion.estimate_ms", "ms"},
	{"flow.analyze_ms", "ms"},
	{"flow.self_ms", "ms"},
	{"serve.exec_ms_p50", "ms"},
	{"serve.cache_hit_frac", "ratio"},
	{"serve.shed_frac", "ratio"},
	{"serve.queued_mean", "count"},
	{"serve.query_ms_p99", "ms"},
	{"serve.max_qps", "1/s"},
	{"runtime.alloc_mb_per_op", "MiB"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"loadgen.lag_ms_p99", "ms"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"trace.replayed_frac", "ratio"},
}

// report accumulates one run's outcome.
type report struct {
	attempted int
	failed    int
	// mismatches holds the first few oracle failures, for stderr.
	mismatches []string
	values     map[string]float64
}

func newReport() *report { return &report{values: map[string]float64{}} }

// fail records a failed op with its reason.
func (r *report) fail(format string, a ...any) {
	r.failed++
	if len(r.mismatches) < 8 {
		r.mismatches = append(r.mismatches, fmt.Sprintf(format, a...))
	}
}

// check records one attempted op, failed when err is non-nil.
func (r *report) check(what string, err error) {
	r.attempted++
	if err != nil {
		r.fail("%s: %v", what, err)
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// buildResult selects the metric set of the run mode. End-to-end metrics
// must all have been measured; a per-layer metric a workload does not
// exercise reads 0.
func buildResult(rep *report, trace bool) (result, error) {
	res := result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricValue{},
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if !ok && !trace {
			return res, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}

// environment is printed before the result so every number comes with the
// machine that produced it.
type environment struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// run executes one invocation and writes the environment line and the
// result line to w. A non-nil error means no valid result was produced.
func run(ctx context.Context, o options, w io.Writer) (result, error) {
	wf, ok := workloads[o.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return result{}, errors.New("--seconds must be positive")
	}
	env := environment{
		Workload: o.workload, Seed: o.seed, Trace: o.trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: cpuModel(),
	}
	envLine, err := json.Marshal(env)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(w, "env %s\n", envLine)

	rep := newReport()
	if err := wf(ctx, o, rep); err != nil {
		return result{}, fmt.Errorf("%s: %w", o.workload, err)
	}
	for _, m := range rep.mismatches {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", o.workload, m)
	}
	res, err := buildResult(rep, o.trace)
	if err != nil {
		return res, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return res, err
	}
	fmt.Fprintf(w, "%s\n", line)
	return res, nil
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "paper-sweep", "workload: paper-sweep, adaptive-explore or serve-mix")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "input seed (the default seed also checks the paper's numbers)")
	flag.Float64Var(&o.seconds, "seconds", 32, "measurement time in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer variant")
	flag.StringVar(&o.spans, "spans", "", "traced run: JSON-lines span file (default .bench_build/spans/<workload>-seed<n>.jsonl)")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = trace == 1
	if o.trace && o.spans == "" {
		o.spans = fmt.Sprintf(".bench_build/spans/%s-seed%d.jsonl", o.workload, o.seed)
	}

	start := time.Now()
	res, err := run(context.Background(), o, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d done in %.1fs\n", o.workload, o.seed, time.Since(start).Seconds())
	if !res.Correct {
		os.Exit(1)
	}
}
