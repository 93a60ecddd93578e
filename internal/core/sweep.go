package core

import (
	"context"
	"fmt"

	"thermplace/internal/fault"
	"thermplace/internal/flow"
	"thermplace/internal/hotspot"
	"thermplace/internal/netlist"
	"thermplace/internal/place"
	"thermplace/internal/taskgroup"
)

// EfficiencyPoint is one point of the paper's Figure 6: a strategy applied
// at a given area overhead and the peak-temperature reduction it achieved.
type EfficiencyPoint struct {
	Strategy Strategy
	// AreaOverhead is the fractional core-area increase over the baseline
	// placement (0.16 means +16.1%).
	AreaOverhead float64
	// TempReduction is the fractional reduction of the peak temperature
	// rise relative to the baseline (0.131 means 13.1%).
	TempReduction float64
	// PeakRise is the absolute peak rise above ambient of this point in K.
	PeakRise float64
	// Rows is the number of empty rows inserted (ERI points only).
	Rows int
	// Utilization is the placement utilization of this point.
	Utilization float64
	// Aspect is the core aspect ratio of this point's floorplan. The
	// adaptive sweep sets it (its candidate grid has an aspect axis);
	// classic sweeps leave it zero — every point uses the flow's configured
	// aspect.
	Aspect float64

	// CriticalPathPs is the temperature-derated critical path of the point
	// in picoseconds, and WorstSlackPs the slack against the flow's clock
	// period (both zero when flow.Config.CoAnalysis is off).
	CriticalPathPs float64
	WorstSlackPs   float64
	// HPWL is the total half-perimeter wirelength of the point in um.
	HPWL float64
	// CongestionOverflows counts the routing bins whose estimated
	// utilization exceeds 1; CongestionMaxUtil is the worst bin.
	CongestionOverflows int
	CongestionMaxUtil   float64
	// Analysis carries the full measurement for further inspection (may be
	// nil when KeepAnalyses is false).
	Analysis *flow.Analysis
	// Placement is the placement measured at this point (may be nil when
	// KeepAnalyses is false).
	Placement *place.Placement
}

// SweepOptions controls an efficiency sweep.
type SweepOptions struct {
	// Overheads are the target fractional area overheads for the Default
	// and HW strategies, e.g. {0.05, 0.1, 0.2, 0.3, 0.4}.
	Overheads []float64
	// ERIRows are the empty-row counts for the ERI strategy; when empty,
	// row counts approximating Overheads are used.
	ERIRows []int
	// Strategies selects which strategies to sweep; empty means all three.
	Strategies []Strategy
	// Wrapper configures the HW transform; its PowerOf is filled in from
	// the corresponding Default analysis when nil.
	Wrapper WrapperOptions
	// WrapperDetection re-detects hotspots for the HW strategy with its own
	// (typically tighter) threshold: wrappers are built around the cells
	// that are the source of the hotspot, whereas ERI targets the broader
	// warm area around it. A zero value selects ThresholdFrac 0.75.
	WrapperDetection hotspot.Options
	// KeepAnalyses retains the full analysis and placement of every point
	// (memory heavy for large sweeps).
	KeepAnalyses bool
	// Workers bounds how many sweep points are evaluated concurrently.
	// Zero picks GOMAXPROCS; 1 evaluates the points sequentially in order.
	// Every point is a pure function of its declared lineage (thermal warm
	// starts are seeded from the parent's field: the baseline for Default
	// and ERI points, the same-overhead Default point for HW points — a
	// chain that lives entirely inside one task), so the sweep output is
	// bit-identical for every worker count.
	Workers int
	// Incremental derives each Default point's placement from the cached
	// baseline (flow.ReflowAt instead of a from-scratch PlaceAt) and
	// re-estimates power through the placement deltas the transforms
	// report (power.Report.Update instead of a full re-estimate). The
	// derived placements and updated reports are bit-identical to the
	// from-scratch ones, so the sweep output is == either way; any
	// incremental-path failure falls back to the from-scratch pipeline for
	// that point. Combine with flow.Config.PowerDeltaGateW to additionally
	// skip thermal solves whose power map barely moved (an approximation —
	// see the gate's documentation).
	Incremental bool
	// Adaptive, when non-nil, switches the sweep to the two-phase
	// multi-fidelity mode (see AdaptiveOptions): a densified candidate grid
	// is triaged with cheap coarse-fidelity estimates and only the
	// estimated Pareto front (plus a safety margin) is re-run through the
	// exact pipeline above. The returned points are exact; Triage records
	// what the coarse phase did.
	Adaptive *AdaptiveOptions
}

// DefaultSweepOptions reproduces the x-axis range of the paper's Figure 6:
// area overheads from about 5% to 40%.
func DefaultSweepOptions() SweepOptions {
	return SweepOptions{
		Overheads: []float64{0.05, 0.10, 0.16, 0.24, 0.32, 0.40},
	}
}

// SweepResult is the outcome of an efficiency sweep.
type SweepResult struct {
	// Baseline is the analysis of the compact starting placement that every
	// reduction is measured against.
	Baseline *flow.Analysis
	// BaselineUtilization is the utilization of the baseline placement.
	BaselineUtilization float64
	// Points are the measured efficiency points, grouped by strategy in the
	// order Default, ERI, HW, each sorted by increasing area overhead.
	// Every point is an exact measurement — an adaptive sweep never emits
	// its coarse estimates as points.
	Points []EfficiencyPoint
	// Triage records what the coarse phase of an adaptive sweep did (nil
	// for a classic sweep).
	Triage *TriageStats
}

// coMetrics copies the co-analysis scalars of an analysis into the point
// (zeros when the flow ran without Config.CoAnalysis). This runs before the
// sweep releases the analysis' heavy state, so the point records survive
// ReleaseHeavy.
func (pt *EfficiencyPoint) coMetrics(an *flow.Analysis) *EfficiencyPoint {
	pt.HPWL = an.HPWL
	if an.Timing != nil {
		pt.CriticalPathPs = an.Timing.CriticalPathPs
		pt.WorstSlackPs = an.Timing.SlackPs
	}
	if an.Congestion != nil {
		pt.CongestionOverflows = an.Congestion.Overflows
		pt.CongestionMaxUtil = an.Congestion.MaxUtilization
	}
	return pt
}

// ParetoFront returns the indices into Points of the multi-objective Pareto
// front: the points no other point weakly dominates under joint
// minimization of area overhead, peak temperature rise, critical-path
// delay, wirelength and congestion overflow. A point dominates another when
// it is no worse in every objective and strictly better in at least one;
// ties (identical vectors) stay on the front. The result depends only on
// the point values and their deterministic order, so it is bit-identical
// across worker counts like the points themselves.
func (r *SweepResult) ParetoFront() []int {
	objectives := func(p *EfficiencyPoint) [5]float64 {
		return [5]float64{p.AreaOverhead, p.PeakRise, p.CriticalPathPs, p.HPWL, float64(p.CongestionOverflows)}
	}
	dominates := func(a, b [5]float64) bool {
		strict := false
		for k := range a {
			if a[k] > b[k] {
				return false
			}
			if a[k] < b[k] {
				strict = true
			}
		}
		return strict
	}
	var front []int
	for i := range r.Points {
		oi := objectives(&r.Points[i])
		dominated := false
		for j := range r.Points {
			if j != i && dominates(objectives(&r.Points[j]), oi) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, i)
		}
	}
	return front
}

// Front2D returns the indices into Points of the Pareto front restricted to
// the adaptive sweep's two triage objectives — area overhead and peak
// temperature rise — under the same weak-dominance semantics as
// ParetoFront. It is the front the adaptive margin guarantee is stated on:
// an adaptive run whose margin covers the coarse estimation error yields
// the same Front2D point set as the exhaustive run over the same grid.
func (r *SweepResult) Front2D() []int {
	dominates := func(a, b *EfficiencyPoint) bool {
		if a.AreaOverhead > b.AreaOverhead || a.PeakRise > b.PeakRise {
			return false
		}
		return a.AreaOverhead < b.AreaOverhead || a.PeakRise < b.PeakRise
	}
	var front []int
	for i := range r.Points {
		dominated := false
		for j := range r.Points {
			if j != i && dominates(&r.Points[j], &r.Points[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, i)
		}
	}
	return front
}

// PointsFor returns the points of one strategy in sweep order.
func (r *SweepResult) PointsFor(s Strategy) []EfficiencyPoint {
	var out []EfficiencyPoint
	for _, p := range r.Points {
		if p.Strategy == s {
			out = append(out, p)
		}
	}
	return out
}

// reduction computes the fractional peak-rise reduction of a versus base.
func reduction(base, a float64) float64 {
	if base <= 0 {
		return 0
	}
	return (base - a) / base
}

func wantStrategy(opts SweepOptions, s Strategy) bool {
	if len(opts.Strategies) == 0 {
		return true
	}
	for _, x := range opts.Strategies {
		if x == s {
			return true
		}
	}
	return false
}

// SweepEfficiency reproduces the paper's Figure 6 experiment on the flow's
// design and workload: it measures the baseline placement, then for every
// requested area overhead measures the Default strategy (utilization
// relaxation), the ERI strategy (empty rows targeted at the baseline's
// hotspots) and the HW strategy (wrappers applied on top of the Default
// placement of the same overhead), and reports the peak-temperature
// reduction of each point.
//
// The points are independent given the baseline, so they are evaluated on a
// bounded worker group (see SweepOptions.Workers): one task per overhead
// runs the Default point and then the HW point that depends on it, and one
// task per row count runs an ERI point. Results are recorded into
// per-strategy slots and assembled in the sequential order afterwards, so
// both the values (thermal warm starts are seeded from the baseline field)
// and the ordering are bit-identical to a Workers=1 run.
func SweepEfficiency(f *flow.Flow, opts SweepOptions) (*SweepResult, error) {
	return SweepEfficiencyCtx(context.Background(), f, opts)
}

// SweepEfficiencyCtx is SweepEfficiency with cancellation: the context is
// threaded into every sweep point's thermal solve (checked per CG
// iteration), so a mid-sweep cancel aborts the in-flight points within
// milliseconds and skips the queued ones, returning an error matching
// fault.ErrCanceled. When the context never fires the sweep result is
// bit-identical to SweepEfficiency.
//
// Point failures carry provenance: the returned error names the design, the
// strategy and the point index it came from (extractable with errors.As on
// *fault.ProvenanceError), and a panic inside a point task is contained as a
// located *fault.ErrPanic rather than crashing the sweep.
func SweepEfficiencyCtx(ctx context.Context, f *flow.Flow, opts SweepOptions) (*SweepResult, error) {
	if len(opts.Overheads) == 0 {
		// Default only the overhead range; the caller's Workers, Strategies
		// and retention settings stay in force.
		opts.Overheads = DefaultSweepOptions().Overheads
	}
	if opts.Adaptive != nil {
		return sweepAdaptive(ctx, f, opts)
	}
	baseUtil := f.Config.Utilization
	baseline, err := f.AnalyzeBaselineCtx(ctx)
	if err != nil {
		return nil, fmt.Errorf("core: sweep baseline: %w", err)
	}
	if len(baseline.Hotspots) == 0 {
		return nil, fmt.Errorf("core: baseline has no detectable hotspots; nothing to optimize")
	}
	baseRise := baseline.Thermal.PeakRise
	baseArea := baseline.Placement.FP.CoreArea()
	result := &SweepResult{Baseline: baseline, BaselineUtilization: baseUtil}

	wantDefault := wantStrategy(opts, StrategyDefault)
	wantHW := wantStrategy(opts, StrategyHW)
	wantERI := wantStrategy(opts, StrategyERI)

	detect := opts.WrapperDetection
	if detect.ThresholdFrac == 0 {
		detect.ThresholdFrac = 0.75
	}
	if detect.MinCells == 0 {
		detect.MinCells = 2
	}

	// Point slots, indexed by position in Overheads / rowCounts. A nil slot
	// after the run means the point was skipped (HW with no tight hotspots).
	var defaults, hws, eris []*EfficiencyPoint
	var rowCounts []int
	if wantERI {
		rowCounts = opts.ERIRows
		if len(rowCounts) == 0 {
			//repolint:allow ctxpair(geometry-only derivation over a handful of overheads; no solves inside)
			for _, ov := range opts.Overheads {
				rowCounts = append(rowCounts, RowsForAreaOverhead(baseline.Placement, ov))
			}
		}
		eris = make([]*EfficiencyPoint, len(rowCounts))
	}

	keep := func(pt *EfficiencyPoint, an *flow.Analysis, p *place.Placement) *EfficiencyPoint {
		if opts.KeepAnalyses {
			pt.Analysis = an
			pt.Placement = p
		}
		return pt
	}

	var tasks []func(context.Context) error
	design := f.Design.Name
	// provenance tags a point failure with where it came from, so a sweep
	// over many designs/strategies reports "which point broke", not just
	// "something broke".
	provenance := func(err error, s Strategy, point int) error {
		return fault.WithProvenance(err, design, string(s), point)
	}

	// One task per overhead: the Default point, then the HW point that
	// pipelines behind it. Lineage is threaded explicitly: the Default
	// point declares the baseline as its parent and the HW point declares
	// its same-overhead Default point, so every thermal solve warm-starts
	// from the nearest previously solved field — a chain that lives
	// entirely inside this task, which is what keeps the sweep output
	// independent of worker count. With opts.Incremental the Default
	// placement reflows from the cached baseline and the HW power report
	// updates through the wrapper's delta instead of re-running the full
	// pipeline (bit-identical either way; errors fall back to the
	// from-scratch path for that point).
	if wantDefault || wantHW {
		defaults = make([]*EfficiencyPoint, len(opts.Overheads))
		hws = make([]*EfficiencyPoint, len(opts.Overheads))
		for i, ov := range opts.Overheads {
			i, ov := i, ov
			tasks = append(tasks, func(tctx context.Context) error {
				util := baseUtil / (1 + ov)
				var p *place.Placement
				var delta *place.Delta
				if opts.Incremental {
					if rp, rd, rerr := f.ReflowAt(util); rerr == nil {
						p, delta = rp, rd
					}
				}
				if p == nil {
					var err error
					p, err = f.PlaceAt(util)
					if err != nil {
						return provenance(fmt.Errorf("core: default point %+v: %w", ov, err), StrategyDefault, i)
					}
				}
				an, err := f.AnalyzeWithCtx(tctx, p, flow.AnalyzeOptions{Parent: baseline, Delta: delta})
				if err != nil {
					return provenance(fmt.Errorf("core: default point %+v: %w", ov, err), StrategyDefault, i)
				}
				if wantDefault {
					defaults[i] = keep((&EfficiencyPoint{
						Strategy:      StrategyDefault,
						AreaOverhead:  an.Placement.FP.CoreArea()/baseArea - 1,
						TempReduction: reduction(baseRise, an.Thermal.PeakRise),
						PeakRise:      an.Thermal.PeakRise,
						Utilization:   util,
					}).coMetrics(an), an, p)
				}
				if !wantHW {
					return nil
				}
				// HW strategy: wrapper insertion on top of this Default
				// placement. The wrapper targets a tighter hotspot
				// definition than ERI does: it isolates the cells that are
				// the source of each hotspot rather than the whole warm
				// area around them.
				spots := hotspot.Detect(an.Thermal.RiseMap(), detect)
				if !opts.KeepAnalyses && f.Config.PowerDeltaGateW <= 0 {
					// Nothing downstream needs the Default point's thermal
					// layers or power map (the HW child only consumes the
					// placement, power report, hotspots and seed state), so
					// release them before the wrapper + solve instead of
					// pinning them for the rest of the task. A positive gate
					// keeps them: the child compares against the parent's
					// power map and may reuse its thermal result.
					an.ReleaseHeavy()
				}
				if len(spots) == 0 {
					return nil
				}
				defPow := an.Power
				wopts := opts.Wrapper
				if wopts.PowerOf == nil {
					wopts.PowerOf = func(inst *netlist.Instance) float64 { return defPow.InstancePower(inst) }
				}
				if wopts.HotCellFactor == 0 {
					wopts.HotCellFactor = 1.0
				}
				var hp *place.Placement
				var hdelta *place.Delta
				if opts.Incremental {
					hp, hdelta, err = HotspotWrapperDelta(an.Placement, spots, wopts)
				} else {
					// From-scratch path: skip the delta recording, too.
					hp, err = HotspotWrapper(an.Placement, spots, wopts)
				}
				if err != nil {
					return provenance(fmt.Errorf("core: HW at overhead %.2f: %w", ov, err), StrategyHW, i)
				}
				han, err := f.AnalyzeWithCtx(tctx, hp, flow.AnalyzeOptions{Parent: an, Delta: hdelta})
				if err != nil {
					return provenance(fmt.Errorf("core: HW at overhead %.2f: %w", ov, err), StrategyHW, i)
				}
				hws[i] = keep((&EfficiencyPoint{
					Strategy:      StrategyHW,
					AreaOverhead:  han.Placement.FP.CoreArea()/baseArea - 1,
					TempReduction: reduction(baseRise, han.Thermal.PeakRise),
					PeakRise:      han.Thermal.PeakRise,
					Utilization:   baseUtil / (han.Placement.FP.CoreArea() / baseArea),
				}).coMetrics(han), han, hp)
				return nil
			})
		}
	}

	// One task per ERI point: empty rows inserted at the baseline's
	// hotspots, analyzed against the baseline as lineage parent (and
	// through the insertion's delta when incremental).
	for j, rows := range rowCounts {
		j, rows := j, rows
		tasks = append(tasks, func(tctx context.Context) error {
			var p *place.Placement
			var delta *place.Delta
			var err error
			if opts.Incremental {
				p, delta, err = EmptyRowInsertionDelta(baseline.Placement, baseline.Hotspots, DefaultERIOptions(rows))
			} else {
				// From-scratch path: skip the delta recording, too.
				p, err = EmptyRowInsertion(baseline.Placement, baseline.Hotspots, DefaultERIOptions(rows))
			}
			if err != nil {
				return provenance(fmt.Errorf("core: ERI %d rows: %w", rows, err), StrategyERI, j)
			}
			an, err := f.AnalyzeWithCtx(tctx, p, flow.AnalyzeOptions{Parent: baseline, Delta: delta})
			if err != nil {
				return provenance(fmt.Errorf("core: ERI %d rows: %w", rows, err), StrategyERI, j)
			}
			eris[j] = keep((&EfficiencyPoint{
				Strategy:      StrategyERI,
				AreaOverhead:  an.Placement.FP.CoreArea()/baseArea - 1,
				TempReduction: reduction(baseRise, an.Thermal.PeakRise),
				PeakRise:      an.Thermal.PeakRise,
				Rows:          rows,
				Utilization:   baseUtil / (an.Placement.FP.CoreArea() / baseArea),
			}).coMetrics(an), an, p)
			return nil
		})
	}

	if err := taskgroup.Run(ctx, tasks, opts.Workers); err != nil {
		return nil, err
	}

	// Assemble in the sequential order: Default points in overhead order,
	// then ERI points in row order, then HW points in overhead order.
	for _, pt := range defaults {
		if pt != nil {
			result.Points = append(result.Points, *pt)
		}
	}
	for _, pt := range eris {
		if pt != nil {
			result.Points = append(result.Points, *pt)
		}
	}
	for _, pt := range hws {
		if pt != nil {
			result.Points = append(result.Points, *pt)
		}
	}
	return result, nil
}

// ConcentratedRow is one row of the paper's Table I.
type ConcentratedRow struct {
	Strategy      Strategy
	CoreW, CoreH  float64
	Rows          int
	AreaOverhead  float64
	TempReduction float64
	PeakRise      float64
}

// ConcentratedOptions configures the Table I experiment.
type ConcentratedOptions struct {
	// Overheads are the two (or more) area-overhead points; the paper uses
	// 16.1% and 32.2%.
	Overheads []float64
	// ERIRows are the matching empty-row counts; the paper uses 20 and 40.
	// When empty, counts matching Overheads are derived from the baseline.
	ERIRows []int
	// KeepAnalyses retains each row's analysis (not exported in the row,
	// but reachable through the returned analyses slice).
	KeepAnalyses bool
}

// DefaultConcentratedOptions mirrors Table I of the paper.
func DefaultConcentratedOptions() ConcentratedOptions {
	return ConcentratedOptions{
		Overheads: []float64{0.161, 0.322},
		ERIRows:   []int{20, 40},
	}
}

// ConcentratedResult is the reproduced Table I.
type ConcentratedResult struct {
	Baseline *flow.Analysis
	Rows     []ConcentratedRow
}

// ConcentratedExperiment reproduces Table I: for a workload producing one
// large concentrated hotspot, it compares the Default strategy at the given
// area overheads against Empty Row Insertion with the given row counts
// (the wrapper method "is not suitable for large hotspots", so it is not
// part of this experiment, exactly as in the paper).
func ConcentratedExperiment(f *flow.Flow, opts ConcentratedOptions) (*ConcentratedResult, error) {
	return ConcentratedExperimentCtx(context.Background(), f, opts)
}

// ConcentratedExperimentCtx is ConcentratedExperiment with cancellation: the
// context is threaded into every row's thermal solve, so a cancel aborts the
// experiment mid-row with an error matching fault.ErrCanceled. When the
// context never fires the result is bit-identical to ConcentratedExperiment.
func ConcentratedExperimentCtx(ctx context.Context, f *flow.Flow, opts ConcentratedOptions) (*ConcentratedResult, error) {
	if len(opts.Overheads) == 0 {
		opts = DefaultConcentratedOptions()
	}
	baseline, err := f.AnalyzeBaselineCtx(ctx)
	if err != nil {
		return nil, fmt.Errorf("core: concentrated baseline: %w", err)
	}
	if len(baseline.Hotspots) == 0 {
		return nil, fmt.Errorf("core: concentrated baseline has no hotspots")
	}
	baseRise := baseline.Thermal.PeakRise
	baseArea := baseline.Placement.FP.CoreArea()
	out := &ConcentratedResult{Baseline: baseline}

	for _, ov := range opts.Overheads {
		util := f.Config.Utilization / (1 + ov)
		p, err := f.PlaceAt(util)
		if err != nil {
			return nil, err
		}
		an, err := f.AnalyzeCtx(ctx, p)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, ConcentratedRow{
			Strategy:      StrategyDefault,
			CoreW:         p.FP.Core.W(),
			CoreH:         p.FP.Core.H(),
			AreaOverhead:  p.FP.CoreArea()/baseArea - 1,
			TempReduction: reduction(baseRise, an.Thermal.PeakRise),
			PeakRise:      an.Thermal.PeakRise,
		})
	}

	rowCounts := opts.ERIRows
	if len(rowCounts) == 0 {
		//repolint:allow ctxpair(geometry-only derivation over a handful of overheads; no solves inside)
		for _, ov := range opts.Overheads {
			rowCounts = append(rowCounts, RowsForAreaOverhead(baseline.Placement, ov))
		}
	}
	for _, rows := range rowCounts {
		p, err := EmptyRowInsertion(baseline.Placement, baseline.Hotspots[:1], DefaultERIOptions(rows))
		if err != nil {
			return nil, err
		}
		an, err := f.AnalyzeCtx(ctx, p)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, ConcentratedRow{
			Strategy:      StrategyERI,
			CoreW:         p.FP.Core.W(),
			CoreH:         p.FP.Core.H(),
			Rows:          rows,
			AreaOverhead:  p.FP.CoreArea()/baseArea - 1,
			TempReduction: reduction(baseRise, an.Thermal.PeakRise),
			PeakRise:      an.Thermal.PeakRise,
		})
	}
	return out, nil
}
