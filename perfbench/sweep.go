package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"thermplace/internal/bench"
	"thermplace/internal/celllib"
	"thermplace/internal/core"
	"thermplace/internal/floorplan"
	"thermplace/internal/flow"
	"thermplace/internal/hotspot"
	"thermplace/internal/netlist"
	"thermplace/internal/place"
	"thermplace/internal/thermal"
)

// defaultSeed is the seed the paper's numbers are checked at. Seed 2 is
// held out of tuning, for confirming later claims (see README.md).
const defaultSeed = 1

// sweepWorkers is the fixed worker count of the timed sweeps, set rather
// than taken from the host so results do not follow its core count. It is 1:
// with 2 workers two L2-resident solves share the cache, and in alternating
// runs on a 2-vCPU host the run median swung by about 12% against about 4%
// with 1. The 2-worker schedule is still checked for bit-identity once per
// run.
const sweepWorkers = 1

// segments splits every untraced batch run into parts, each on freshly
// built state. How fast the L2-resident solves run depends on where their
// arrays land in the physically indexed cache, and a rebuild draws that
// again: one flow can be a quarter faster or slower than the next for its
// whole life. A median over several builds is steadier than one build's.
const segments = 8

// paperInputs are the paper's 12k-cell synth9 design under the
// scattered-small-hotspots workload; the seed selects the random stimulus.
type paperInputs struct {
	design *netlist.Design
	wl     bench.Workload
	cfg    flow.Config
}

func newPaperInputs(o options) (*paperInputs, error) {
	bcfg, cfg := bench.DefaultConfig(), flow.DefaultConfig()
	if o.tiny {
		bcfg, cfg = bench.SmallConfig(), flow.FastConfig()
	}
	cfg.Seed = o.seed
	d, err := bench.Generate(celllib.Default65nm(), bcfg)
	if err != nil {
		return nil, err
	}
	return &paperInputs{design: d, wl: bench.ScatteredSmallHotspots(), cfg: cfg}, nil
}

// setUp builds a resident flow: activity simulation, baseline placement,
// baseline analysis. It returns the flow and the seconds it took.
func (in *paperInputs) setUp(ctx context.Context) (*flow.Flow, float64, error) {
	start := time.Now()
	f := flow.New(in.design, in.wl, in.cfg)
	if _, err := f.AnalyzeBaselineCtx(ctx); err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return f, time.Since(start).Seconds(), nil
}

// heapMB returns the live heap in MiB after a forced collection.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// loop runs op back to back (a closed loop, one op at a time) until the
// budget is spent, and returns each op's wall time in ms. It runs op at
// least twice, so a reference the first op sets is checked at least once.
func loop(budget time.Duration, rep *report, what string, op func() error) []float64 {
	var times []float64
	start := time.Now()
	for len(times) < 2 || time.Since(start) < budget {
		t := time.Now()
		err := op()
		times = append(times, float64(time.Since(t))/1e6)
		rep.check(what, err)
	}
	return times
}

// budget is the run's measuring time.
func budget(o options) time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// segmentBudget is how long segment seg of nseg may measure when the earlier
// segments measured spent in all: each segment ends where an even split of
// the budget says it should, so a segment's overshoot past its share (up to
// one op) is taken from the next segment instead of adding up over the run.
func segmentBudget(o options, seg, nseg int, spent time.Duration) time.Duration {
	return budget(o)*time.Duration(seg+1)/time.Duration(nseg) - spent
}

// samePoints is the sweep oracle: every field of every point must be == to
// the reference's (the sweeps run without KeepAnalyses, so the pointer
// fields are nil on both sides).
func samePoints(got, want []core.EfficiencyPoint) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d points, reference has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("point %d is %+v, reference %+v", i, got[i], want[i])
		}
	}
	return nil
}

// perturbPoints moves the reference's first peak rise by one ulp: the
// smallest wrong answer the oracle must still catch.
func perturbPoints(pts []core.EfficiencyPoint) {
	pts[0].PeakRise = math.Nextafter(pts[0].PeakRise, math.Inf(1))
}

// paperNumbers checks the paper reproduction's headline numbers at display
// precision: the baseline peak rise and hotspot count, and the ERI
// reductions at 16% and 32% area overhead.
func paperNumbers(res *core.SweepResult) error {
	if got := fmt.Sprintf("%.3f", res.Baseline.Thermal.PeakRise); got != "2.176" {
		return fmt.Errorf("baseline peak rise %s C, paper reproduction 2.176 C", got)
	}
	if n := len(res.Baseline.Hotspots); n != 7 {
		return fmt.Errorf("baseline has %d hotspots, paper reproduction 7", n)
	}
	eri := res.PointsFor(core.StrategyERI)
	if len(eri) != 6 {
		return fmt.Errorf("%d ERI points, want 6", len(eri))
	}
	for _, c := range []struct {
		i    int
		want string
	}{{2, "12.32"}, {4, "21.15"}} {
		if got := fmt.Sprintf("%.2f", 100*eri[c.i].TempReduction); got != c.want {
			return fmt.Errorf("ERI at overhead %.2f reduces %s%%, paper reproduction %s%%", eri[c.i].AreaOverhead, got, c.want)
		}
	}
	return nil
}

// sweepWorkload is what paper-sweep and adaptive-explore share: a warm
// resident flow, a sweep op, and a replay of the op's exact points.
type sweepWorkload struct {
	sopts  core.SweepOptions
	replay func(rp *replayer, res *core.SweepResult) (matched int, err error)
	// extra checks the reference op further (the paper numbers).
	extra func(ref *core.SweepResult) error
}

func runSweepWorkload(ctx context.Context, o options, rep *report, w sweepWorkload) error {
	in, err := newPaperInputs(o)
	if err != nil {
		return err
	}
	var ref *core.SweepResult
	check := func(res *core.SweepResult) error {
		if err := samePoints(res.Points, ref.Points); err != nil {
			return err
		}
		if (res.Triage == nil) != (ref.Triage == nil) || (res.Triage != nil && *res.Triage != *ref.Triage) {
			return fmt.Errorf("triage %+v, reference %+v", res.Triage, ref.Triage)
		}
		return nil
	}
	var f *flow.Flow
	op := func() (*core.SweepResult, error) {
		res, err := core.SweepEfficiencyCtx(ctx, f, w.sopts)
		if err == nil {
			err = check(res)
		}
		return res, err
	}
	// Each segment sets up a fresh flow and warms its solver pools with one
	// op; the very first op is the reference every later op must reproduce.
	// The traced run uses one flow.
	nseg := segments
	if o.trace {
		nseg = 1
	}
	var setups, times []float64
	var spent time.Duration
	for seg := 0; seg < nseg; seg++ {
		if f != nil {
			f.Close()
		}
		var secs float64
		f, secs, err = in.setUp(ctx)
		if err != nil {
			return err
		}
		setups = append(setups, secs)
		if seg == 0 {
			rep.values["heap_mb"] = heapMB()
		}
		res, err := core.SweepEfficiencyCtx(ctx, f, w.sopts)
		switch {
		case err != nil:
		case ref == nil:
			ref = res
			if o.perturb {
				perturbPoints(ref.Points)
			}
			if w.extra != nil {
				err = w.extra(ref)
			}
		default:
			err = check(res)
		}
		rep.check("warm-up sweep", err)
		if ref == nil {
			f.Close()
			return nil
		}
		if !o.trace {
			start := time.Now()
			times = append(times, loop(segmentBudget(o, seg, nseg, spent), rep, "sweep", func() error {
				_, err := op()
				return err
			})...)
			spent += time.Since(start)
		}
	}
	defer f.Close()
	rep.values["setup_s"] = median(setups)
	if !o.trace {
		rep.values["op_ms_p50"] = median(times)
	} else if err := tracedSweeps(ctx, o, rep, f, w, op); err != nil {
		return err
	}

	// Bit-identity across schedules and modes: a 2-worker incremental sweep
	// and a sequential from-scratch sweep must equal the reference.
	for _, mode := range []struct {
		workers     int
		incremental bool
	}{{2, true}, {1, false}} {
		opts := w.sopts
		opts.Workers, opts.Incremental = mode.workers, mode.incremental
		res, err := core.SweepEfficiencyCtx(ctx, f, opts)
		if err == nil {
			err = samePoints(res.Points, ref.Points)
		}
		rep.check(fmt.Sprintf("%d-worker incremental=%v sweep", mode.workers, mode.incremental), err)
	}

	if ts := ref.Triage; ts != nil && o.trace {
		rep.values["core.candidates"] = float64(ts.Candidates)
		rep.values["core.triaged_frac"] = float64(ts.Candidates-ts.Survivors) / float64(ts.Candidates)
		rep.values["core.coarse_solves"] = float64(ts.CoarseSolves)
		rep.values["core.exact_solves"] = float64(ts.ExactSolves)
		if n := len(ref.ParetoFront()); n > 0 {
			rep.values["core.exact_per_front_point"] = float64(ts.ExactSolves) / float64(n)
		}
	}
	return nil
}

// tracedSweeps is the traced variant of the sweep loop. The first half of
// the budget runs untraced ops (the runtime metrics and the overhead
// reference); the second half runs each op as usual and then replays its
// exact points stage by stage.
func tracedSweeps(ctx context.Context, o options, rep *report, f *flow.Flow, w sweepWorkload, op func() (*core.SweepResult, error)) error {
	rs := newRuntimeSampler()
	before := rs.read()
	plain := loop(budget(o)/2, rep, "sweep", func() error { _, err := op(); return err })
	setRuntime(rep, before, rs.read(), len(plain))

	tr := newTracer()
	rep.check("activity replay", replayActivity(f, tr))
	rp, err := newReplayer(ctx, f, tr)
	if err != nil {
		return err
	}
	defer rp.close()
	var flowMs []float64
	ops, points, matched := 0, 0, 0
	start := time.Now()
	for ops == 0 || time.Since(start) < budget(o)/2 {
		ops++
		tr.beginOp()
		var res *core.SweepResult
		var err error
		flowMs = append(flowMs, tr.do("core.sweep", func() { res, err = op() }))
		if err != nil {
			rep.check("sweep", err)
			continue
		}
		var m int
		tr.do("replay", func() { m, err = w.replay(rp, res) })
		rep.check("replay", err)
		points += len(res.Points)
		matched += m
	}
	tr.setLayerTimes(rep)
	rp.setCounts(rep, ops)
	rep.values["trace.coverage"] = tr.coverage("replay")
	rep.values["trace.overhead_frac"] = median(flowMs)/median(plain) - 1
	if points > 0 {
		rep.values["trace.replayed_frac"] = float64(matched) / float64(points)
	}
	return tr.write(o.spans)
}

// replayBase starts an op's replay: a fresh replica solver and the cold
// baseline, checked against the flow's cached baseline analysis.
func replayBase(rp *replayer) (*place.Placement, *replica, error) {
	if err := rp.beginOp(); err != nil {
		return nil, nil, err
	}
	basePl, err := rp.f.Baseline()
	if err != nil {
		return nil, nil, err
	}
	baseAn, err := rp.f.AnalyzeBaselineCtx(rp.ctx)
	if err != nil {
		return nil, nil, err
	}
	base, err := rp.point(basePl, nil, nil, baseAn)
	if err != nil {
		return nil, nil, fmt.Errorf("baseline: %w", err)
	}
	return basePl, base, nil
}

// reflowPoint replays a Default point the way the sweep derives it: reflow
// from the baseline placement at the configured aspect (flow.ReflowAt's
// steps), a from-scratch placement otherwise or when the reflow fails.
func (r *replayer) reflowPoint(basePl *place.Placement, util, aspect float64) (*place.Placement, *place.Delta, error) {
	cfg := r.f.Config
	if aspect == cfg.AspectRatio {
		var p *place.Placement
		var d *place.Delta
		var err error
		r.tr.do("place.reflow", func() {
			p, d, err = basePl.Reflow(util)
			if err != nil {
				return
			}
			if cfg.RefinePasses > 0 {
				place.RefineHPWL(p, cfg.RefinePasses)
			}
			place.InsertFillers(p)
		})
		if err == nil {
			r.countMoved(d)
			return p, d, nil
		}
	}
	var p *place.Placement
	var err error
	r.tr.do("place.place", func() { p, err = r.f.PlaceAtAspect(util, aspect) })
	return p, nil, err
}

// countMoved adds a transform's moved cells to place.moved_cells; a full
// delta (a reflow re-spreads every row) moves every instance.
func (r *replayer) countMoved(d *place.Delta) {
	if d.IsFull() {
		r.movedCells += r.f.Design.NumInstances()
	} else {
		r.movedCells += len(d.Moved())
	}
}

// hwPoint replays the HW transform on top of a replayed Default point.
func (r *replayer) hwPoint(def *replica) (*replica, error) {
	var spots []hotspot.Hotspot
	r.tr.do("hotspot.detect", func() {
		spots = hotspot.Detect(def.an.Thermal.RiseMap(), hotspot.Options{ThresholdFrac: 0.75, MinCells: 2})
	})
	if len(spots) == 0 {
		return nil, nil
	}
	wopts := core.DefaultWrapperOptions(def.an.Power.InstancePower)
	var hp *place.Placement
	var hd *place.Delta
	var err error
	r.tr.do("core.hw", func() { hp, hd, err = core.HotspotWrapperDelta(def.an.Placement, spots, wopts) })
	if err != nil {
		return nil, err
	}
	r.countMoved(hd)
	return r.point(hp, def, hd, nil)
}

// eriPoint replays the ERI transform at the baseline's hotspots.
func (r *replayer) eriPoint(basePl *place.Placement, base *replica, rows int) (*replica, error) {
	var p *place.Placement
	var d *place.Delta
	var err error
	r.tr.do("core.eri", func() {
		p, d, err = core.EmptyRowInsertionDelta(basePl, base.an.Hotspots, core.DefaultERIOptions(rows))
	})
	if err != nil {
		return nil, err
	}
	r.countMoved(d)
	return r.point(p, base, d, nil)
}

// matchPoint checks a replayed point against the sweep's point.
func matchPoint(got *replica, want core.EfficiencyPoint) error {
	an := got.an
	if an.Thermal.PeakRise != want.PeakRise || an.HPWL != want.HPWL ||
		an.Timing.CriticalPathPs != want.CriticalPathPs || an.Congestion.Overflows != want.CongestionOverflows {
		return fmt.Errorf("replayed %s point (rise %v, path %v ps, overflows %d) differs from the sweep's %+v",
			want.Strategy, an.Thermal.PeakRise, an.Timing.CriticalPathPs, an.Congestion.Overflows, want)
	}
	return nil
}

// runPaperSweep is the paper-sweep workload: one op is the full Figure 6
// sweep (6 overheads x Default/ERI/HW), incremental, on 2 workers.
func runPaperSweep(ctx context.Context, o options, rep *report) error {
	overheads := core.DefaultSweepOptions().Overheads
	w := sweepWorkload{
		sopts: core.SweepOptions{Overheads: overheads, Workers: sweepWorkers, Incremental: true},
	}
	if !o.tiny && o.seed == defaultSeed {
		w.extra = paperNumbers
	}
	w.replay = func(rp *replayer, res *core.SweepResult) (int, error) {
		basePl, base, err := replayBase(rp)
		if err != nil {
			return 0, err
		}
		baseUtil := rp.f.Config.Utilization
		var defaults, eris, hws []*replica
		for _, ov := range overheads {
			p, d, err := rp.reflowPoint(basePl, baseUtil/(1+ov), rp.f.Config.AspectRatio)
			if err != nil {
				return 0, err
			}
			def, err := rp.point(p, base, d, nil)
			if err != nil {
				return 0, fmt.Errorf("default %.2f: %w", ov, err)
			}
			defaults = append(defaults, def)
			hw, err := rp.hwPoint(def)
			if err != nil {
				return 0, fmt.Errorf("hw %.2f: %w", ov, err)
			}
			if hw != nil {
				hws = append(hws, hw)
			}
		}
		for _, ov := range overheads {
			rows := core.RowsForAreaOverhead(basePl, ov)
			eri, err := rp.eriPoint(basePl, base, rows)
			if err != nil {
				return 0, fmt.Errorf("eri %d rows: %w", rows, err)
			}
			eris = append(eris, eri)
		}
		all := append(append(defaults, eris...), hws...)
		if len(all) != len(res.Points) {
			return 0, fmt.Errorf("replayed %d points, the sweep has %d", len(all), len(res.Points))
		}
		for i, got := range all {
			if err := matchPoint(got, res.Points[i]); err != nil {
				return i, err
			}
		}
		return len(all), nil
	}
	return runSweepWorkload(ctx, o, rep, w)
}

// adaptiveOptions is the BenchmarkFig6_AdaptiveSweep configuration.
func adaptiveOptions(tiny bool) core.SweepOptions {
	a := &core.AdaptiveOptions{GridScale: 12, Margin: 0.05, Aspects: []float64{1.0, 2.0}}
	if tiny {
		a.GridScale = 2
	}
	return core.SweepOptions{
		Overheads:   []float64{0.16, 0.32},
		Workers:     sweepWorkers,
		Incremental: true,
		Adaptive:    a,
	}
}

// densified mirrors the adaptive sweep's candidate overhead axis:
// len(base)*scale points spanning the base range.
func densified(base []float64, scale int) []float64 {
	lo, hi := base[0], base[0]
	for _, v := range base {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	n := len(base) * scale
	if scale <= 1 || n < 2 || lo == hi {
		return base
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out
}

// runAdaptiveExplore is the adaptive-explore workload: one op is the
// two-phase multi-fidelity sweep over 115 candidates.
func runAdaptiveExplore(ctx context.Context, o options, rep *report) error {
	sopts := adaptiveOptions(o.tiny)
	w := sweepWorkload{sopts: sopts}
	w.replay = func(rp *replayer, res *core.SweepResult) (int, error) {
		basePl, base, err := replayBase(rp)
		if err != nil {
			return 0, err
		}
		f := rp.f
		// The coarse-fidelity solve of the baseline power map, as the
		// triage phase's calibration runs it.
		ccfg := f.Config.Thermal
		ccfg.CoarseFactor = 4
		var cs *thermal.Solver
		rp.tr.do("thermal.coarse_setup", func() { cs, err = thermal.NewSolver(ccfg) })
		if err != nil {
			return 0, err
		}
		rp.tr.do("thermal.coarse_solve", func() { _, err = cs.SolveCtx(rp.ctx, base.an.PowerMap) })
		cs.Close()
		if err != nil {
			return 0, err
		}

		baseUtil := f.Config.Utilization
		baseArea := basePl.FP.CoreArea()
		type cell struct{ util, aspect float64 }
		defaults := map[cell]*replica{}
		defaultAt := func(c cell) (*replica, error) {
			if d := defaults[c]; d != nil {
				return d, nil
			}
			p, d, err := rp.reflowPoint(basePl, c.util, c.aspect)
			if err != nil {
				return nil, err
			}
			def, err := rp.point(p, base, d, nil)
			if err != nil {
				return nil, fmt.Errorf("default %.4f/%g: %w", c.util, c.aspect, err)
			}
			defaults[c] = def
			return def, nil
		}
		// hwParent finds the Default grid cell an HW point was wrapped on:
		// the one candidate utilization whose floorplan has the HW point's
		// core area (the wrapper keeps the outline). Ambiguous points are
		// not replayed.
		hwParent := func(pt core.EfficiencyPoint) (cell, bool, error) {
			var found []cell
			for _, ov := range densified(sopts.Overheads, sopts.Adaptive.GridScale) {
				u := baseUtil / (1 + ov)
				fp, err := floorplan.New(f.Design, floorplan.Config{Utilization: u, AspectRatio: pt.Aspect})
				if err != nil {
					return cell{}, false, err
				}
				if fp.CoreArea()/baseArea-1 == pt.AreaOverhead {
					found = append(found, cell{u, pt.Aspect})
				}
			}
			if len(found) != 1 {
				return cell{}, false, nil
			}
			return found[0], true, nil
		}
		matched := 0
		for _, pt := range res.Points {
			var got *replica
			var err error
			switch pt.Strategy {
			case core.StrategyDefault:
				got, err = defaultAt(cell{pt.Utilization, pt.Aspect})
			case core.StrategyERI:
				got, err = rp.eriPoint(basePl, base, pt.Rows)
			case core.StrategyHW:
				c, ok, ferr := hwParent(pt)
				if ferr != nil || !ok {
					err = ferr
					break
				}
				var def *replica
				if def, err = defaultAt(c); err == nil {
					if got, err = rp.hwPoint(def); err == nil && got == nil {
						err = fmt.Errorf("replayed HW at %+v found no hotspot to wrap", c)
					}
				}
			}
			if err != nil {
				return matched, fmt.Errorf("%s point %+v: %w", pt.Strategy, pt, err)
			}
			if got == nil {
				continue
			}
			if err := matchPoint(got, pt); err != nil {
				return matched, err
			}
			matched++
		}
		return matched, nil
	}
	return runSweepWorkload(ctx, o, rep, w)
}
