package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"thermplace/internal/bench"
	"thermplace/internal/celllib"
	"thermplace/internal/flow"
	"thermplace/internal/serve"
)

// Load shape of serve-mix. The offered rates are fixed (not derived from the
// host), so numbers from two commits are comparable.
const (
	// serveConns is the number of client connections: at most two queries
	// are outstanding at once.
	serveConns = 2
	// serveSlots is MaxInFlight of each design. It is below serveConns, so
	// two queries to one design meet in admission: one runs, one queues.
	serveSlots = 1
	// serveRefQPS is the reference rate query latency is reported at.
	serveRefQPS = 15.0
	// serveLimitMs is the p99 latency limit max_qps is defined by.
	serveLimitMs = 400.0
)

// cachedUtils are the /analyze utilizations every server answers once
// before its load starts, so the queries for them are cache hits.
var cachedUtils = []float64{0.70, 0.74, 0.78, 0.82}

// serveLadder are the offered rates above the reference that max_qps is
// searched over, in ascending order, about 10% apart. They bracket where the
// backlog was seen to grow on a 2-vCPU Xeon host: 33 to 40 queries/s at
// seeds 1 and 2.
var serveLadder = []float64{22, 24.5, 27, 30, 33, 36.5, 40, 44}

// serveDesign is one resident design: its generated netlist and workload
// and the flow configuration it is served with.
type serveDesign struct {
	name string
	gen  *bench.Generated
	fcfg flow.Config
}

// request is one scheduled query.
type request struct {
	set    int // the design set (and segment) it is sent to
	phase  int
	due    time.Duration // offset from the load start
	design string
	path   string // endpoint with its query string
	query  serve.Query
}

// outcome is what the client observed for one request.
type outcome struct {
	released  bool // false for requests after the last phase run
	status    int
	latencyMs float64 // from due time to the end of the response
	lagMs     float64 // how late the generator released the request
	body      []byte
	err       error
}

// queryMix draws one query of the kind x in [0, 1) selects: 25% /analyze
// from a fixed set of utilizations the cache serves, 35% /analyze at a fresh
// utilization, 15% /delta eri, 10% /delta hw and 15% one-point /sweep. Every
// parameter but the fixed utilizations is drawn at 1e-4 resolution, so only
// those repeat. Sorted by latency, cached answers (about 1 ms) come first,
// then fresh /analyze and eri (30-40 ms), then hw and /sweep (60-100 ms);
// the median falls in the middle of the second group, where the latency
// distribution is densest and a share moving by a few points moves the
// median least.
func queryMix(rng *rand.Rand, x float64, designs []serveDesign) (string, string, serve.Query) {
	d := designs[rng.Intn(len(designs))].name
	ff := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	fresh := func(lo, width float64) float64 {
		return float64(int64((lo+width*rng.Float64())*1e4+0.5)) / 1e4
	}
	switch {
	case x < 0.25:
		u := cachedUtils[rng.Intn(len(cachedUtils))]
		return d, "/analyze?util=" + ff(u), serve.Query{Kind: serve.KindAnalyze, Utilization: u}
	case x < 0.60:
		u := fresh(0.60, 0.24)
		return d, "/analyze?util=" + ff(u), serve.Query{Kind: serve.KindAnalyze, Utilization: u}
	case x < 0.75:
		ov := fresh(0.05, 0.35)
		return d, "/delta?strategy=eri&overhead=" + ff(ov), serve.Query{Kind: serve.KindERI, Overhead: ov}
	case x < 0.85:
		ov := fresh(0.10, 0.30)
		return d, "/delta?strategy=hw&overhead=" + ff(ov), serve.Query{Kind: serve.KindHW, Overhead: ov}
	default:
		ov := fresh(0.10, 0.30)
		return d, "/sweep?overheads=" + ff(ov), serve.Query{Kind: serve.KindSweep, Overheads: []float64{ov}}
	}
}

// schedule lays out the open-loop load: rates[i] for phases[i], requests
// evenly spaced within a phase. Each phase's kinds are stratified (one x per
// n-th of [0, 1), in shuffled order), so every phase holds the mix's shares
// to within one request and the seed changes only the order and the
// parameters. With independent draws the shares varied by a few points from
// seed to seed, and near the median a few points of share were several
// percent of latency (34.1, 36.0 and 39.2 ms at the 45th, 50th and 55th
// percentiles in one run).
func schedule(rng *rand.Rand, set int, rates []float64, phases []time.Duration, designs []serveDesign) []request {
	var reqs []request
	var t0 time.Duration
	for i, rate := range rates {
		n := int(rate * phases[i].Seconds())
		for k, slot := range rng.Perm(n) {
			d, path, q := queryMix(rng, (float64(slot)+0.5)/float64(n), designs)
			reqs = append(reqs, request{
				set: set, phase: i, due: t0 + time.Duration(float64(k)/rate*float64(time.Second)),
				design: d, path: path + "&design=" + d, query: q,
			})
		}
		t0 += phases[i]
	}
	return reqs
}

// parallel runs fn(0..n-1) on the given number of goroutines and waits.
func parallel(workers, n int, fn func(i int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// drive runs the schedule against url: a generator releases each request
// at its due time into a queue that serveConns workers drain, each over its
// own connection. Every released request is sent, the ones still queued when
// the generator stops too. It returns one outcome per request and, per phase,
// the backlog (released but unsent requests) when the phase ended. After two
// phases in a row whose backlog exceeds their entry in maxBacklog no more
// are released, so an overloaded server is not buried under the rest of the
// schedule. probe, when not nil, runs at every release.
func drive(ctx context.Context, client *http.Client, url string, reqs []request, maxBacklog []int, probe func()) ([]outcome, []int) {
	out := make([]outcome, len(reqs))
	// Sized to the number of sends, so the generator never blocks and its
	// lateness measures only itself.
	queue := make(chan int, len(reqs))
	var picked atomic.Int64
	var workers sync.WaitGroup
	start := time.Now()
	workers.Add(serveConns)
	for w := 0; w < serveConns; w++ {
		go func() {
			defer workers.Done()
			for i := range queue {
				picked.Add(1)
				lag := out[i].lagMs
				out[i] = send(ctx, client, url+reqs[i].path)
				out[i].released, out[i].lagMs = true, lag
				out[i].latencyMs = float64(time.Since(start)-reqs[i].due) / 1e6
			}
		}()
	}
	backlog := make([]int, len(maxBacklog))
	released, over := 0, 0
	for i, r := range reqs {
		if i > 0 && r.phase != reqs[i-1].phase {
			p := reqs[i-1].phase
			if backlog[p] = i - int(picked.Load()); backlog[p] <= maxBacklog[p] {
				over = 0
			} else if over++; over == 2 {
				break
			}
		}
		if d := time.Until(start.Add(r.due)); d > 0 {
			time.Sleep(d)
		}
		out[i].released = true
		out[i].lagMs = float64(time.Since(start)-r.due) / 1e6
		if probe != nil {
			probe()
		}
		queue <- i
		released = i + 1
	}
	if released == len(reqs) {
		backlog[len(backlog)-1] = len(reqs) - int(picked.Load())
	}
	close(queue)
	workers.Wait()
	return out, backlog
}

// send performs one GET and reads the whole body.
func send(ctx context.Context, client *http.Client, url string) outcome {
	var o outcome
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		o.err = err
		return o
	}
	resp, err := client.Do(req)
	if err != nil {
		o.err = err
		return o
	}
	o.body, o.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	o.status = resp.StatusCode
	return o
}

// segment is what one freshly built server saw.
type segment struct {
	setupS        float64
	outs          []outcome
	backlog       []int
	queued        []float64 // summed admission queue depths, one per release
	before, after runtimeReading
	statz         serve.StatzResponse
}

// serveSegment builds a server with both designs resident (the timed
// set-up), fills its cache with the answers for cachedUtils, serves reqs
// over loopback HTTP and shuts the server down. afterSetup, when not nil,
// runs right after the set-up. With trace, the admission queues are sampled
// at every release.
func serveSegment(ctx context.Context, designs []serveDesign, reqs []request, maxBacklog []int, trace bool, afterSetup func()) (*segment, error) {
	seg := &segment{}
	start := time.Now()
	srv := serve.NewServer(serve.Config{MaxInFlight: serveSlots, MaxQueue: 64, CacheBytes: 64 << 20})
	defer srv.Close()
	for _, d := range designs {
		if err := srv.AddDesign(ctx, d.name, d.gen.Design, d.gen.Workload, d.fcfg, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	seg.setupS = time.Since(start).Seconds()
	if afterSetup != nil {
		afterSetup()
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	transport := &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns}
	client := &http.Client{Transport: transport}
	stop := func() error {
		transport.CloseIdleConnections()
		if err := hs.Shutdown(ctx); err != nil {
			return err
		}
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
	url := "http://" + ln.Addr().String()

	for _, d := range designs {
		for _, u := range cachedUtils {
			path := "/analyze?util=" + strconv.FormatFloat(u, 'g', -1, 64) + "&design=" + d.name
			if oc := send(ctx, client, url+path); oc.err != nil || oc.status != http.StatusOK {
				stop()
				return nil, fmt.Errorf("cache fill %s: status %d: %v", path, oc.status, oc.err)
			}
		}
	}

	var probe func()
	if trace {
		probe = func() {
			n := int64(0)
			for _, d := range srv.Statz().Designs {
				n += d.Queued
			}
			seg.queued = append(seg.queued, float64(n))
		}
	}
	rs := newRuntimeSampler()
	seg.before = rs.read()
	seg.outs, seg.backlog = drive(ctx, client, url, reqs, maxBacklog, probe)
	seg.after = rs.read()
	seg.statz = srv.Statz()
	return seg, stop()
}

// designSet generates the two resident designs of one scenario seed.
func designSet(seed int64, cells, grid, cycles int) ([]serveDesign, error) {
	lib := celllib.Default65nm()
	var designs []serveDesign
	for _, fam := range []bench.Family{bench.FamilyPaperSynth9, bench.FamilyHotspotCluster} {
		gen, err := bench.Scenario{Family: fam, Seed: seed, TargetCells: cells}.Generate(lib)
		if err != nil {
			return nil, err
		}
		fcfg := flow.ScenarioConfig(gen.Scenario)
		fcfg.SimCycles = cycles
		fcfg.Thermal.NX, fcfg.Thermal.NY = grid, grid
		designs = append(designs, serveDesign{name: string(fam), gen: gen, fcfg: fcfg})
	}
	return designs, nil
}

// runServeMix is the serve-mix workload: the query server in process, two
// resident scenario designs, an open-loop query mix over loopback HTTP. The
// untraced run is split into segments, each on a freshly built server, for
// the reason the batch workloads are (see segments). Each segment serves its
// own design set: seed n selects the scenario seeds
// segments*n .. segments*n+segments-1, so one run's median stands for the
// scenario family rather than for one draw of its unit mix. The seed also
// seeds the query sequence.
func runServeMix(ctx context.Context, o options, rep *report) error {
	cells, grid, cycles, nseg := 3000, 40, 64, segments
	if o.tiny {
		cells, grid, cycles, nseg = 800, 16, 32, 2
	}
	if o.trace {
		nseg = 1
	}
	// The untraced run offers the reference rate for the whole budget. The
	// traced run offers it for half, then climbs the ladder for max_qps.
	rates, phases := []float64{serveRefQPS}, []time.Duration{budget(o) / time.Duration(nseg)}
	if o.trace {
		phases[0] /= 2
		for _, r := range serveLadder {
			rates = append(rates, r)
			phases = append(phases, budget(o)/2/time.Duration(len(serveLadder)))
		}
	}
	// A phase passes while at its end at most 5% of its requests (and at
	// least 2, one burst) are still due but unsent.
	maxBacklog := make([]int, len(rates))
	for i, rate := range rates {
		maxBacklog[i] = max(2, int(0.05*rate*phases[i].Seconds()))
	}
	rng := rand.New(rand.NewSource(o.seed))
	var sets [][]serveDesign
	var reqs []request
	var outs []outcome
	var setups []float64
	var last *segment
	var admitted, shed uint64
	for k := 0; k < nseg; k++ {
		designs, err := designSet(o.seed*segments+int64(k), cells, grid, cycles)
		if err != nil {
			return err
		}
		sets = append(sets, designs)
		segReqs := schedule(rng, k, rates, phases, designs)
		var afterSetup func()
		if k == 0 {
			afterSetup = func() { rep.values["heap_mb"] = heapMB() }
		}
		seg, err := serveSegment(ctx, designs, segReqs, maxBacklog, o.trace, afterSetup)
		if err != nil {
			return err
		}
		setups = append(setups, seg.setupS)
		reqs, outs = append(reqs, segReqs...), append(outs, seg.outs...)
		for _, d := range seg.statz.Designs {
			admitted += d.Admitted
			shed += d.Shed
		}
		last = seg
	}
	rep.values["setup_s"] = median(setups)

	// The oracle: every 200 body must equal serve.Exec on a clean flow. The
	// references run after the load, so they cannot disturb it. A traced run
	// executes them one at a time, so each serve.exec span is uncontended.
	type job struct {
		r    request
		body []byte
		err  error
	}
	refKey := func(r request) string { return fmt.Sprint(r.set, " ", r.design, " ", r.query.Key()) }
	index := map[string]int{}
	jobs := make([][]*job, len(sets))
	for i, r := range reqs {
		if outs[i].status == http.StatusOK {
			if _, ok := index[refKey(r)]; !ok {
				index[refKey(r)] = len(jobs[r.set])
				jobs[r.set] = append(jobs[r.set], &job{r: r})
			}
		}
	}
	var perturbed *job
	for _, js := range jobs {
		if len(js) > 0 {
			perturbed = js[0]
			break
		}
	}
	clean := map[string]*flow.Flow{}
	exec := func(j *job) {
		res, _, err := serve.Exec(ctx, clean[j.r.design], j.r.query)
		if err == nil && o.perturb && j == perturbed {
			res.TotalPowerW = math.Nextafter(res.TotalPowerW, math.Inf(1))
		}
		if err == nil {
			j.body, err = json.Marshal(res)
		}
		j.err = err
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	for set, designs := range sets {
		for _, d := range designs {
			f := flow.New(d.gen.Design, d.gen.Workload, d.fcfg)
			if _, err := f.AnalyzeBaselineCtx(ctx); err != nil {
				f.Close()
				return err
			}
			clean[d.name] = f
		}
		if o.trace {
			tr.do("replay", func() {
				for _, j := range jobs[set] {
					tr.do("serve.exec", func() { exec(j) })
				}
			})
		} else {
			parallel(serveConns, len(jobs[set]), func(i int) { exec(jobs[set][i]) })
		}
		for _, f := range clean {
			f.Close()
		}
	}

	latencies := make([][]float64, len(rates))
	var lags []float64
	ok, cached := 0, 0
	for i, r := range reqs {
		oc := outs[i]
		if !oc.released {
			continue
		}
		lags = append(lags, oc.lagMs)
		rep.attempted++
		if oc.err != nil || oc.status != http.StatusOK {
			rep.fail("%s: status %d: %v %s", r.path, oc.status, oc.err, bytes.TrimSpace(oc.body))
			continue
		}
		var got serve.Result
		if err := json.Unmarshal(oc.body, &got); err != nil {
			rep.fail("%s: bad body: %v", r.path, err)
			continue
		}
		wasCached := got.Cached
		if got.Design != r.design || got.Degraded {
			rep.fail("%s: served design %q degraded=%v", r.path, got.Design, got.Degraded)
			continue
		}
		got.Design, got.Cached = "", false
		gotJSON, err := json.Marshal(&got)
		if err != nil {
			return err
		}
		ref := jobs[r.set][index[refKey(r)]]
		if ref.err != nil {
			rep.fail("%s: reference: %v", r.path, ref.err)
			continue
		}
		if !bytes.Equal(gotJSON, ref.body) {
			rep.fail("%s: served %s, reference %s", r.path, gotJSON, ref.body)
			continue
		}
		ok++
		if wasCached {
			cached++
		}
		latencies[r.phase] = append(latencies[r.phase], oc.latencyMs)
	}

	rep.values["op_ms_p50"] = median(latencies[0])
	if !o.trace {
		return nil
	}
	rep.values["serve.query_ms_p99"] = quantile(latencies[0], 0.99)
	backlog := last.backlog
	for i, rate := range rates {
		fmt.Fprintf(os.Stderr, "perfbench: serve-mix %g/s: %d answered, p50 %.1f ms, p99 %.1f ms, backlog %d\n",
			rate, len(latencies[i]), median(latencies[i]), quantile(latencies[i], 0.99), backlog[i])
	}
	// max_qps: the highest offered rate that kept p99 within the limit and
	// its backlog from growing. A rate that fails below one that passes was
	// a transient, not the server's limit.
	for i, rate := range rates {
		if len(latencies[i]) > 0 && quantile(latencies[i], 0.99) <= serveLimitMs && backlog[i] <= maxBacklog[i] {
			rep.values["serve.max_qps"] = rate
		}
	}
	if ok > 0 {
		rep.values["serve.cache_hit_frac"] = float64(cached) / float64(ok)
	}
	if admitted+shed > 0 {
		rep.values["serve.shed_frac"] = float64(shed) / float64(admitted+shed)
	}
	rep.values["serve.queued_mean"] = mean(last.queued)
	rep.values["loadgen.lag_ms_p99"] = quantile(lags, 0.99)
	setRuntime(rep, last.before, last.after, rep.attempted)
	var execMs []float64
	for _, s := range tr.spans {
		if s.Name == "serve.exec" {
			execMs = append(execMs, s.ms())
		}
	}
	rep.values["serve.exec_ms_p50"] = median(execMs)
	rep.values["trace.coverage"] = tr.coverage("replay")
	rep.values["trace.replayed_frac"] = 1
	return tr.write(o.spans)
}
