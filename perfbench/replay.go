package main

import (
	"context"
	"fmt"
	"strings"

	"thermplace/internal/congestion"
	"thermplace/internal/flow"
	"thermplace/internal/geom"
	"thermplace/internal/hotspot"
	"thermplace/internal/logicsim"
	"thermplace/internal/place"
	"thermplace/internal/power"
	"thermplace/internal/thermal"
	"thermplace/internal/timing"
)

// replayer re-runs the stages of flow.AnalyzeWithCtx through the layers'
// exported functions, in the flow's order, timing each call as a span:
//
//	Report/Update -> power.Map -> thermal.Solver (seeded from the parent's
//	solved field) -> hotspot.Detect -> timing.Analyzer.Analyze ->
//	congestion.Estimate -> TotalHPWL
//
// The transform or reflow that produced the placement is replayed by the
// workload before it calls point. Every replayed point is also analyzed by
// the flow itself, and the replica must reproduce the flow's peak rise, rise
// map, critical path, overflow count and wirelength exactly: that equality
// is what makes the per-layer times describe the real pipeline.
type replayer struct {
	ctx context.Context
	f   *flow.Flow
	tr  *tracer
	est *power.Estimator
	ta  *timing.Analyzer
	// solver is the replica's exact-fidelity thermal solver, built per op
	// so the op's baseline solves cold, like the flow's first solve.
	solver *thermal.Solver

	// Run tallies.
	movedCells, dirtyNets, cgIters, unknowns, replayed int
	flowSelfMs                                         float64
}

// replica is one replayed point: the flow's analysis of it, and the
// replica's power report and solved field (the lineage children's inputs).
type replica struct {
	an    *flow.Analysis
	rep   *power.Report
	state []float64
}

// newReplayer builds the replica's power estimator from the flow's cached
// activity, and its timing graph (the "timing.build" span).
func newReplayer(ctx context.Context, f *flow.Flow, tr *tracer) (*replayer, error) {
	act, err := f.Activity()
	if err != nil {
		return nil, err
	}
	r := &replayer{ctx: ctx, f: f, tr: tr}
	tr.do("power.new_estimator", func() { r.est = power.NewEstimator(f.Design, act, f.Config.ClockHz) })
	tr.do("timing.build", func() { r.ta, err = timing.NewAnalyzer(f.Design) })
	if err != nil {
		return nil, err
	}
	return r, nil
}

// replayActivity re-simulates the switching activity exactly as
// flow.Activity does and checks it against the flow's cached result.
func replayActivity(f *flow.Flow, tr *tracer) error {
	want, err := f.Activity()
	if err != nil {
		return err
	}
	stim := logicsim.RandomStimulus(f.Config.Seed, func(port string) float64 {
		unit, _, _ := strings.Cut(port, "_")
		return f.Workload.ActivityFor(unit)
	})
	var got *logicsim.Activity
	tr.do("logicsim.run", func() { got, err = logicsim.RunRandom(f.Design, f.Config.SimCycles, stim) })
	if err != nil {
		return err
	}
	if len(got.TogglesPerCycle) != len(want.TogglesPerCycle) {
		return fmt.Errorf("replayed activity has %d nets, the flow's has %d", len(got.TogglesPerCycle), len(want.TogglesPerCycle))
	}
	for net, v := range want.TogglesPerCycle {
		if got.TogglesPerCycle[net] != v {
			return fmt.Errorf("replayed activity of net %s is %v, the flow's is %v", net, got.TogglesPerCycle[net], v)
		}
	}
	return nil
}

// beginOp builds a fresh replica solver for the next op.
func (r *replayer) beginOp() error {
	r.close()
	var err error
	r.tr.do("thermal.setup", func() { r.solver, err = thermal.NewSolver(r.f.Config.Thermal) })
	if err != nil {
		return err
	}
	r.unknowns = r.solver.Unknowns()
	return nil
}

func (r *replayer) close() {
	if r.solver != nil {
		r.solver.Close()
		r.solver = nil
	}
}

// point analyzes placement p through the flow (the "flow.analyze" span,
// with the lineage parent and delta the sweep passes) and through the
// replica stages, and checks that the two agree. parent is nil for the
// baseline; an is the flow's analysis when the caller already has it (the
// baseline's), in which case the flow is not called again.
func (r *replayer) point(p *place.Placement, parent *replica, delta *place.Delta, an *flow.Analysis) (*replica, error) {
	var err error
	analyzeMs := 0.0
	if an == nil {
		opts := flow.AnalyzeOptions{Delta: delta}
		if parent != nil {
			opts.Parent = parent.an
		}
		analyzeMs = r.tr.do("flow.analyze", func() { an, err = r.f.AnalyzeWithCtx(r.ctx, p, opts) })
		if err != nil {
			return nil, err
		}
	}
	out := &replica{an: an}
	cfg := r.f.Config
	var stagesMs float64
	if parent != nil && delta != nil && !delta.IsFull() {
		stagesMs += r.tr.do("power.update", func() { out.rep = parent.rep.Update(p, delta) })
		r.dirtyNets += len(delta.DirtyNets())
	} else {
		stagesMs += r.tr.do("power.estimate", func() { out.rep = r.est.Report(p) })
	}
	nx, ny := cfg.Thermal.GridDims()
	var pm *geom.Grid
	stagesMs += r.tr.do("power.map", func() { pm = power.Map(out.rep, p, nx, ny) })
	if parent != nil {
		if err := r.solver.SeedState(parent.state); err != nil {
			return nil, err
		}
	}
	var res *thermal.Result
	stagesMs += r.tr.do("thermal.solve", func() { res, err = r.solver.SolveCtx(r.ctx, pm) })
	if err != nil {
		return nil, err
	}
	r.cgIters += res.Iterations
	out.state = r.solver.State()
	var spots []hotspot.Hotspot
	stagesMs += r.tr.do("hotspot.detect", func() { spots = hotspot.Detect(res.RiseMap(), cfg.HotspotOptions) })
	var trep *timing.Report
	var cong *congestion.Report
	var hpwl float64
	if cfg.CoAnalysis {
		topts := timingOptions(cfg, res)
		stagesMs += r.tr.do("timing.analyze", func() { trep = r.ta.Analyze(p, topts) })
		stagesMs += r.tr.do("congestion.estimate", func() { cong = congestion.Estimate(p, cfg.Congestion) })
		stagesMs += r.tr.do("place.hpwl", func() { hpwl = p.TotalHPWL() })
	}
	if analyzeMs > 0 {
		r.flowSelfMs += analyzeMs - stagesMs
	}
	if err := sameAnalysis(an, res, spots, trep, cong, hpwl); err != nil {
		return nil, err
	}
	r.replayed++
	return out, nil
}

// timingOptions resolves the co-analysis timing options the way the flow
// does for a zero Config.Timing: timing.DefaultOptions, the clock period from
// ClockHz, and the analysis' own solved surface as the temperature map.
func timingOptions(cfg flow.Config, res *thermal.Result) timing.Options {
	topts := cfg.Timing
	if topts == (timing.Options{}) {
		topts = timing.DefaultOptions()
		topts.ClockPeriodPs = 0
	}
	if topts.ClockPeriodPs == 0 {
		if cfg.ClockHz > 0 {
			topts.ClockPeriodPs = 1e12 / cfg.ClockHz
		} else {
			topts.ClockPeriodPs = timing.DefaultOptions().ClockPeriodPs
		}
	}
	if topts.TemperatureMap == nil {
		topts.TemperatureMap = res.Surface
	}
	return topts
}

// sameAnalysis reports the first difference between the flow's analysis and
// the replica's results.
func sameAnalysis(an *flow.Analysis, res *thermal.Result, spots []hotspot.Hotspot, trep *timing.Report, cong *congestion.Report, hpwl float64) error {
	if an.Thermal.PeakRise != res.PeakRise {
		return fmt.Errorf("replica peak rise %v, flow %v", res.PeakRise, an.Thermal.PeakRise)
	}
	want, got := an.Thermal.RiseMap().Values(), res.RiseMap().Values()
	if len(want) != len(got) {
		return fmt.Errorf("replica rise map has %d cells, flow %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("replica rise map cell %d is %v, flow %v", i, got[i], want[i])
		}
	}
	if len(an.Hotspots) != len(spots) {
		return fmt.Errorf("replica found %d hotspots, flow %d", len(spots), len(an.Hotspots))
	}
	if trep == nil {
		return nil
	}
	if an.Timing == nil || an.Congestion == nil {
		return fmt.Errorf("flow analysis carries no co-analysis")
	}
	if an.Timing.CriticalPathPs != trep.CriticalPathPs {
		return fmt.Errorf("replica critical path %v ps, flow %v ps", trep.CriticalPathPs, an.Timing.CriticalPathPs)
	}
	if an.Congestion.Overflows != cong.Overflows {
		return fmt.Errorf("replica overflow count %d, flow %d", cong.Overflows, an.Congestion.Overflows)
	}
	if an.HPWL != hpwl {
		return fmt.Errorf("replica HPWL %v, flow %v", hpwl, an.HPWL)
	}
	return nil
}

// setCounts stores the replay's per-op counts and the flow's self time.
func (r *replayer) setCounts(rep *report, ops int) {
	if ops == 0 {
		return
	}
	rep.values["place.moved_cells"] = float64(r.movedCells) / float64(ops)
	rep.values["power.dirty_nets"] = float64(r.dirtyNets) / float64(ops)
	rep.values["thermal.cg_iters"] = float64(r.cgIters) / float64(ops)
	rep.values["thermal.unknowns"] = float64(r.unknowns)
	rep.values["flow.self_ms"] = r.flowSelfMs / float64(ops)
}
