package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"thermplace/internal/fault"
	"thermplace/internal/floorplan"
	"thermplace/internal/flow"
	"thermplace/internal/geom"
	"thermplace/internal/hotspot"
	"thermplace/internal/netlist"
	"thermplace/internal/place"
	"thermplace/internal/taskgroup"
	"thermplace/internal/thermal"
)

// AdaptiveOptions configures the two-phase multi-fidelity sweep
// (SweepOptions.Adaptive). Phase 1 enumerates a densified candidate grid —
// the base overhead axis refined GridScale times, crossed with the Aspects
// axis — and scores every candidate with a cheap coarse-fidelity estimate:
// no placement is built; the baseline power map is transformed
// geometrically into the candidate's floorplan and solved on a CoarseFactor
// downsampled thermal grid. The coarse model's bias is systematic and
// nearly linear in area overhead, so the estimates are calibrated with a
// two-point scheme: the exact/coarse rise ratio is interpolated linearly in
// area between the baseline (area 0) and one exact anchor measurement per
// estimate family (the largest-area Default and ERI candidates, whose exact
// measurements are reused as sweep points). Phase 2 re-runs only the
// estimated Pareto front (plus every candidate within Margin of it) through
// the exact incremental pipeline; the sweep's points are those exact
// measurements, bit-identical to an exhaustive run's measurements of the
// same candidates.
type AdaptiveOptions struct {
	// GridScale densifies the overhead axis: the candidate grid spans the
	// base Overheads range with len(Overheads)*GridScale uniformly spaced
	// points. 0 or 1 keeps the base overheads verbatim.
	GridScale int
	// Margin widens the survivor set around the estimated front. Candidate
	// s is triaged away only when some candidate q dominates it by more
	// than the margin in the estimated objective: q.area <= s.area and
	// q.estRise <= s.estRise - Margin*S, S being the rise range over the
	// candidates (with at least one strict inequality, so duplicates keep
	// each other alive). The margin applies to the rise axis only — area
	// overhead is computed exactly from candidate geometry and carries no
	// estimation error to absorb. Margin 0 keeps exactly the estimated
	// front; the true exact front is preserved whenever every pair's
	// differential rise-estimation error |err_s - err_q| stays below
	// Margin*S. +Inf disables triage entirely — every candidate survives
	// to the exact phase, the exhaustive reference mode the harness
	// compares against.
	Margin float64
	// MaxExact, when positive, caps how many survivors are re-run exactly:
	// survivors are kept in deterministic candidate order and the excess is
	// dropped and counted in TriageStats.Truncated — an explicit budget,
	// never a silent cap. The calibration anchors are exempt (their exact
	// measurements are already in hand when the budget is applied).
	MaxExact int
	// CoarseFactor is the thermal grid downsampling factor of the estimate
	// phase (thermal.Config.CoarseFactor). 0 selects 4; values below 2 are
	// otherwise rejected (a factor of 1 would make "triage" as expensive as
	// the exact phase).
	CoarseFactor int
	// Aspects is the core aspect-ratio axis of the candidate grid, applied
	// to Default and HW candidates (ERI stretches the baseline placement,
	// whose aspect is fixed). Empty means the flow's configured aspect
	// only.
	Aspects []float64

	// InjectEstRiseBiasC is a fault-injection hook for the bench harness:
	// it biases the estimated peak rise of every odd-indexed candidate by
	// the given amount (in C) before triage, deterministically corrupting
	// the coarse phase so the exactness check on the adaptive front must
	// fail. Zero injects nothing.
	InjectEstRiseBiasC float64
}

// TriageStats records what the coarse phase of an adaptive sweep did.
type TriageStats struct {
	// Candidates is the size of the enumerated candidate grid; Survivors of
	// them passed the margin triage (including estimate-less candidates
	// that survive conservatively, e.g. an HW candidate whose coarse rise
	// map shows no hotspot to wrap). Survivors minus Truncated reached the
	// exact phase.
	Candidates int
	Survivors  int
	// CoarseSolves counts the downsampled thermal solves of phase 1
	// (including the coarse baseline calibration solve); ExactSolves the
	// full-fidelity pipeline runs of phase 2.
	CoarseSolves int
	ExactSolves  int
	// ExtraParents counts triaged-away Default candidates that were
	// measured exactly anyway because a surviving HW candidate needed its
	// Default placement as lineage parent; they are not reported as points.
	ExtraParents int
	// Anchors counts the exact calibration measurements of phase 1 (at most
	// one per estimate family). Anchor points always appear in the result —
	// they are exact measurements already paid for — and are exempt from the
	// MaxExact budget.
	Anchors int
	// Truncated counts survivors dropped by the MaxExact budget.
	Truncated int
	// Margin echoes the dominance margin the triage ran with.
	Margin float64
	// ErrHist is the histogram of relative est-vs-exact peak-rise error
	// over the surviving candidates: <1%, <2%, <5%, <10%, >=10%.
	ErrHist [5]int
	// MaxEstErrC is the largest absolute est-vs-exact peak-rise difference
	// observed over the surviving candidates, in C.
	MaxEstErrC float64
}

// addErr records one est-vs-exact comparison into the histogram.
func (ts *TriageStats) addErr(estRise, exactRise float64) {
	err := math.Abs(estRise - exactRise)
	if err > ts.MaxEstErrC {
		ts.MaxEstErrC = err
	}
	rel := 1.0
	if exactRise > 0 {
		rel = err / exactRise
	}
	switch {
	case rel < 0.01:
		ts.ErrHist[0]++
	case rel < 0.02:
		ts.ErrHist[1]++
	case rel < 0.05:
		ts.ErrHist[2]++
	case rel < 0.10:
		ts.ErrHist[3]++
	default:
		ts.ErrHist[4]++
	}
}

// adaptiveCandidate is one cell of the densified design-space grid, carried
// through both phases.
type adaptiveCandidate struct {
	index    int // position in the deterministic enumeration order
	strategy Strategy
	overhead float64 // target fractional area overhead (Default/HW)
	rows     int     // ERI only
	aspect   float64
	util     float64 // placement utilization (Default/HW)

	// Phase-1 estimate. estArea is exact (derived from the candidate's
	// floorplan geometry); rawRise is the uncalibrated coarse-solve peak
	// rise and estRise the calibrated estimate. estValid is false when no
	// estimate could be formed (the candidate then survives
	// conservatively). anchored marks the calibration anchors, measured
	// exactly during phase 1.
	estValid bool
	estArea  float64
	rawRise  float64
	estRise  float64
	survives bool
	anchored bool

	// Phase-2 exact measurement (nil when triaged away, truncated, or the
	// exact transform skipped the point, e.g. HW with nothing to wrap).
	point *EfficiencyPoint
}

// adaptiveOverheads densifies the base overhead axis to len(base)*scale
// uniformly spaced points spanning the base range.
func adaptiveOverheads(base []float64, scale int) []float64 {
	if scale <= 1 || len(base) == 0 {
		return base
	}
	lo, hi := base[0], base[0]
	for _, v := range base {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	n := len(base) * scale
	if n < 2 || lo == hi {
		return base
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out
}

// coarsePool is the adaptive sweep's private pool of downsampled thermal
// solvers. Every solve is seeded from the same coarse-baseline field, so
// the estimates are independent of which pooled solver (and hence which
// worker schedule) ran them.
type coarsePool struct {
	cfg  thermal.Config
	seed []float64

	mu   sync.Mutex
	free []*thermal.Solver

	solves atomic.Int64
}

func (cp *coarsePool) solve(ctx context.Context, pm *geom.Grid) (*thermal.Result, error) {
	cp.mu.Lock()
	var s *thermal.Solver
	if n := len(cp.free); n > 0 {
		s, cp.free = cp.free[n-1], cp.free[:n-1]
	}
	cp.mu.Unlock()
	if s == nil {
		var err error
		s, err = thermal.NewSolver(cp.cfg)
		if err != nil {
			return nil, err
		}
	}
	if cp.seed != nil {
		if err := s.SeedState(cp.seed); err != nil {
			s.Close()
			return nil, err
		}
	}
	res, err := s.SolveCtx(ctx, pm)
	if err != nil {
		s.Close()
		return nil, err
	}
	cp.solves.Add(1)
	cp.mu.Lock()
	cp.free = append(cp.free, s)
	cp.mu.Unlock()
	return res, nil
}

func (cp *coarsePool) close() {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	for _, s := range cp.free {
		s.Close()
	}
	cp.free = nil
}

// rebinInto maps every cell of src into dst by relative position (src's
// region is stretched onto dst's region), conserving total power. It is the
// placement-free model of a utilization/aspect reflow: cells keep their
// relative coordinates while the die stretches around them.
func rebinInto(dst, src *geom.Grid) {
	sx := dst.Region.W() / src.Region.W()
	sy := dst.Region.H() / src.Region.H()
	for iy := 0; iy < src.NY; iy++ {
		for ix := 0; ix < src.NX; ix++ {
			v := src.At(ix, iy)
			if v == 0 {
				continue
			}
			c := src.CellCenter(ix, iy)
			dst.AddAt(geom.Point{
				X: dst.Region.Xlo + (c.X-src.Region.Xlo)*sx,
				Y: dst.Region.Ylo + (c.Y-src.Region.Ylo)*sy,
			}, v)
		}
	}
}

// sweepAdaptive runs the two-phase multi-fidelity sweep. See
// AdaptiveOptions for the scheme and SweepEfficiencyCtx for the contract it
// shares with the classic sweep (cancellation, provenance, determinism
// across worker counts).
func sweepAdaptive(ctx context.Context, f *flow.Flow, opts SweepOptions) (*SweepResult, error) {
	af := *opts.Adaptive
	if af.CoarseFactor == 0 {
		af.CoarseFactor = 4
	}
	if af.CoarseFactor < 2 {
		return nil, fmt.Errorf("core: adaptive sweep needs CoarseFactor >= 2, got %d", af.CoarseFactor)
	}
	if math.IsNaN(af.Margin) || af.Margin < 0 {
		return nil, fmt.Errorf("core: adaptive sweep needs a non-negative Margin, got %g", af.Margin)
	}
	baseUtil := f.Config.Utilization
	baseline, err := f.AnalyzeBaselineCtx(ctx)
	if err != nil {
		return nil, fmt.Errorf("core: adaptive sweep baseline: %w", err)
	}
	if len(baseline.Hotspots) == 0 {
		return nil, fmt.Errorf("core: baseline has no detectable hotspots; nothing to optimize")
	}
	if baseline.PowerMap == nil {
		return nil, fmt.Errorf("core: adaptive sweep needs the baseline power map (was it released?)")
	}
	baseRise := baseline.Thermal.PeakRise
	baseArea := baseline.Placement.FP.CoreArea()
	stats := &TriageStats{Margin: af.Margin}
	result := &SweepResult{Baseline: baseline, BaselineUtilization: baseUtil, Triage: stats}

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

	// ---- Candidate enumeration (deterministic order: Default by
	// aspect-major/overhead-minor, then ERI by row count, then HW). ----
	overheads := adaptiveOverheads(opts.Overheads, af.GridScale)
	aspects := af.Aspects
	if len(aspects) == 0 {
		aspects = []float64{f.Config.AspectRatio}
	}
	var rowCounts []int
	if wantERI {
		rowCounts = opts.ERIRows
		if len(rowCounts) == 0 {
			// Row granularity quantizes the overhead axis, so consecutive
			// densified overheads often map to the same row count; dedupe.
			for _, ov := range overheads {
				r := RowsForAreaOverhead(baseline.Placement, ov)
				if n := len(rowCounts); n == 0 || rowCounts[n-1] != r {
					rowCounts = append(rowCounts, r)
				}
			}
		}
	}

	var cands []*adaptiveCandidate
	add := func(c *adaptiveCandidate) *adaptiveCandidate {
		c.index = len(cands)
		cands = append(cands, c)
		return c
	}
	// defaultAt[a][i] pairs the Default and HW candidates of one grid cell.
	var defaultAt, hwAt [][]*adaptiveCandidate
	if wantDefault || wantHW {
		defaultAt = make([][]*adaptiveCandidate, len(aspects))
		hwAt = make([][]*adaptiveCandidate, len(aspects))
		for ai, asp := range aspects {
			defaultAt[ai] = make([]*adaptiveCandidate, len(overheads))
			for i, ov := range overheads {
				defaultAt[ai][i] = add(&adaptiveCandidate{
					strategy: StrategyDefault, overhead: ov, aspect: asp,
					util: baseUtil / (1 + ov),
				})
			}
		}
	}
	var eriCands []*adaptiveCandidate
	for _, rows := range rowCounts {
		eriCands = append(eriCands, add(&adaptiveCandidate{
			strategy: StrategyERI, rows: rows, aspect: f.Config.AspectRatio,
		}))
	}
	if wantHW {
		for ai, asp := range aspects {
			hwAt[ai] = make([]*adaptiveCandidate, len(overheads))
			for i, ov := range overheads {
				hwAt[ai][i] = add(&adaptiveCandidate{
					strategy: StrategyHW, overhead: ov, aspect: asp,
					util: baseUtil / (1 + ov),
				})
			}
		}
	}
	stats.Candidates = len(cands)

	// ---- Phase 1: coarse-fidelity estimates, placement-free. ----
	ccfg := f.Config.Thermal
	ccfg.CoarseFactor = af.CoarseFactor
	cnx, cny := ccfg.GridDims()
	pool := &coarsePool{cfg: ccfg}
	defer pool.close()

	// Calibration solve: the baseline through the coarse model (the solver
	// restricts the full-resolution baseline power map itself). The
	// exact/coarse baseline rise ratio anchors the calibration at area 0,
	// and the solved coarse-baseline field becomes the fixed warm-start
	// seed of every candidate solve — determinism does not depend on worker
	// scheduling.
	s0, err := thermal.NewSolver(ccfg)
	if err != nil {
		return nil, fmt.Errorf("core: adaptive coarse solver: %w", err)
	}
	cbase, err := s0.SolveCtx(ctx, baseline.PowerMap)
	if err != nil {
		s0.Close()
		return nil, fmt.Errorf("core: adaptive coarse baseline: %w", err)
	}
	if cbase.PeakRise <= 0 {
		s0.Close()
		return nil, fmt.Errorf("core: adaptive coarse baseline lost the temperature rise")
	}
	pool.seed = s0.State()
	pool.free = append(pool.free, s0)
	pool.solves.Add(1)

	basePM := baseline.PowerMap
	baseFP := baseline.Placement.FP

	// estDefault builds the coarse estimate of a Default candidate: the
	// exact candidate floorplan (bit-identical to what PlaceAtAspect will
	// build), the baseline power map rebinned into it, one coarse solve.
	// It returns the coarse rise map for the stacked HW estimate.
	estDefault := func(tctx context.Context, c *adaptiveCandidate) (*geom.Grid, *thermal.Result, error) {
		fp, err := floorplan.New(f.Design, floorplan.Config{
			Utilization: c.util, AspectRatio: c.aspect,
		})
		if err != nil {
			return nil, nil, err
		}
		pm := geom.NewGrid(cnx, cny, fp.Core)
		rebinInto(pm, basePM)
		res, err := pool.solve(tctx, pm)
		if err != nil {
			return nil, nil, err
		}
		c.estArea = fp.CoreArea()/baseArea - 1
		c.rawRise = res.PeakRise
		c.estValid = true
		return pm, res, nil
	}

	// estHW stacks the wrapper model on a Default estimate: hotspots are
	// detected on the coarse rise map, and each hotspot's power is spread
	// over the region the wrapper would redistribute its hot cells into.
	// The core outline (and hence the area) is the parent's.
	estHW := func(tctx context.Context, c, parent *adaptiveCandidate, defPM *geom.Grid, defRes *thermal.Result) error {
		spots := hotspot.Detect(defRes.RiseMap(), detect)
		if opts.Wrapper.MaxHotspots > 0 && len(spots) > opts.Wrapper.MaxHotspots {
			spots = spots[:opts.Wrapper.MaxHotspots]
		}
		if len(spots) == 0 {
			// No estimate: the exact path may still find (and wrap) tighter
			// hotspots, so the candidate survives conservatively rather
			// than being triaged on a guess.
			return nil
		}
		core := defPM.Region
		ring := opts.Wrapper.RingWidth
		if ring <= 0 {
			ring = 2 * baseFP.RowHeight
		}
		expand := opts.Wrapper.ExpandFactor
		if expand <= 0 {
			expand = geom.Clamp(1/c.util, 1.2, 3.0)
		}
		pm := defPM.Clone()
		moved := false
		for _, h := range spots {
			hotBox := h.Rect.Intersect(core)
			if hotBox.Empty() {
				continue
			}
			growth := (math.Sqrt(expand) - 1) / 2
			outer := hotBox.Expand(growth * (hotBox.W() + hotBox.H()) / 2).Intersect(core)
			inner := outer.Expand(-ring).Intersect(core)
			if inner.Empty() || inner.W() < 4*baseFP.SiteWidth || inner.H() < baseFP.RowHeight {
				continue
			}
			// Move the power of the cells whose centers sit in the hotspot
			// box onto the wrapper's inner region, uniformly — the coarse
			// model of "spread the hot cells over the wrapped region".
			w := 0.0
			for iy := 0; iy < pm.NY; iy++ {
				for ix := 0; ix < pm.NX; ix++ {
					if hotBox.Contains(pm.CellCenter(ix, iy)) {
						w += pm.At(ix, iy)
						pm.Set(ix, iy, 0)
					}
				}
			}
			if w > 0 {
				pm.SpreadRect(inner, w)
				moved = true
			}
		}
		if !moved {
			// Wrapper model had no effect (every hotspot too small to
			// wrap): survive conservatively, like the no-spots case.
			return nil
		}
		res, err := pool.solve(tctx, pm)
		if err != nil {
			return err
		}
		c.estArea = parent.estArea
		c.rawRise = res.PeakRise
		c.estValid = true
		return nil
	}

	design := f.Design.Name
	provenance := func(err error, s Strategy, point int) error {
		return fault.WithProvenance(err, design, string(s), point)
	}

	var estTasks []func(context.Context) error
	if wantDefault || wantHW {
		for ai := range aspects {
			for i := range overheads {
				ai, i := ai, i
				estTasks = append(estTasks, func(tctx context.Context) error {
					d := defaultAt[ai][i]
					defPM, defRes, err := estDefault(tctx, d)
					if err != nil {
						return provenance(fmt.Errorf("core: adaptive estimate, default %.3f: %w", d.overhead, err), StrategyDefault, d.index)
					}
					if !wantHW {
						return nil
					}
					h := hwAt[ai][i]
					if err := estHW(tctx, h, d, defPM, defRes); err != nil {
						return provenance(fmt.Errorf("core: adaptive estimate, HW %.3f: %w", h.overhead, err), StrategyHW, h.index)
					}
					return nil
				})
			}
		}
	}
	for _, c := range eriCands {
		c := c
		estTasks = append(estTasks, func(tctx context.Context) error {
			insertions, err := eriInsertionRows(baseFP, baseline.Hotspots, DefaultERIOptions(c.rows))
			if err != nil {
				return provenance(fmt.Errorf("core: adaptive estimate, ERI %d rows: %w", c.rows, err), StrategyERI, c.index)
			}
			// Stretch the baseline power map through the insertion points:
			// each cell shifts up by one row height per empty row inserted
			// at or below its row — the same piecewise shift the exact
			// transform applies to the cells themselves.
			region := basePM.Region
			region.Yhi += float64(c.rows) * baseFP.RowHeight
			pm := geom.NewGrid(cnx, cny, region)
			for iy := 0; iy < basePM.NY; iy++ {
				for ix := 0; ix < basePM.NX; ix++ {
					v := basePM.At(ix, iy)
					if v == 0 {
						continue
					}
					ct := basePM.CellCenter(ix, iy)
					row := baseFP.RowAt(ct.Y).Index
					shift := countLE(insertions, row)
					pm.AddAt(geom.Point{X: ct.X, Y: ct.Y + float64(shift)*baseFP.RowHeight}, v)
				}
			}
			res, err := pool.solve(tctx, pm)
			if err != nil {
				return provenance(fmt.Errorf("core: adaptive estimate, ERI %d rows: %w", c.rows, err), StrategyERI, c.index)
			}
			c.estArea = AreaOverheadForRows(baseline.Placement, c.rows)
			c.rawRise = res.PeakRise
			c.estValid = true
			return nil
		})
	}
	if err := taskgroup.Run(ctx, estTasks, opts.Workers); err != nil {
		return nil, err
	}

	// ---- Exact-measurement helpers, shared by the calibration anchors and
	// phase 2: one code path, so an anchor's point is bit-identical to what
	// the exact phase would have measured for the same candidate. ----
	var exactSolves atomic.Int64
	keep := func(pt *EfficiencyPoint, an *flow.Analysis, p *place.Placement) *EfficiencyPoint {
		if opts.KeepAnalyses {
			pt.Analysis = an
			pt.Placement = p
		}
		return pt
	}
	measureDefault := func(tctx context.Context, asp float64, d *adaptiveCandidate, record bool) (*flow.Analysis, error) {
		var p *place.Placement
		var delta *place.Delta
		if opts.Incremental && asp == f.Config.AspectRatio {
			if rp, rd, rerr := f.ReflowAt(d.util); rerr == nil {
				p, delta = rp, rd
			}
		}
		if p == nil {
			var err error
			p, err = f.PlaceAtAspect(d.util, asp)
			if err != nil {
				return nil, provenance(fmt.Errorf("core: adaptive default %.3f: %w", d.overhead, err), StrategyDefault, d.index)
			}
		}
		an, err := f.AnalyzeWithCtx(tctx, p, flow.AnalyzeOptions{Parent: baseline, Delta: delta})
		if err != nil {
			return nil, provenance(fmt.Errorf("core: adaptive default %.3f: %w", d.overhead, err), StrategyDefault, d.index)
		}
		exactSolves.Add(1)
		if record {
			d.point = keep((&EfficiencyPoint{
				Strategy:      StrategyDefault,
				AreaOverhead:  an.Placement.FP.CoreArea()/baseArea - 1,
				TempReduction: reduction(baseRise, an.Thermal.PeakRise),
				PeakRise:      an.Thermal.PeakRise,
				Utilization:   d.util,
				Aspect:        asp,
			}).coMetrics(an), an, p)
		}
		return an, nil
	}
	measureERI := func(tctx context.Context, c *adaptiveCandidate) error {
		var p *place.Placement
		var delta *place.Delta
		var err error
		if opts.Incremental {
			p, delta, err = EmptyRowInsertionDelta(baseline.Placement, baseline.Hotspots, DefaultERIOptions(c.rows))
		} else {
			p, err = EmptyRowInsertion(baseline.Placement, baseline.Hotspots, DefaultERIOptions(c.rows))
		}
		if err != nil {
			return provenance(fmt.Errorf("core: adaptive ERI %d rows: %w", c.rows, err), StrategyERI, c.index)
		}
		an, err := f.AnalyzeWithCtx(tctx, p, flow.AnalyzeOptions{Parent: baseline, Delta: delta})
		if err != nil {
			return provenance(fmt.Errorf("core: adaptive ERI %d rows: %w", c.rows, err), StrategyERI, c.index)
		}
		exactSolves.Add(1)
		c.point = keep((&EfficiencyPoint{
			Strategy:      StrategyERI,
			AreaOverhead:  an.Placement.FP.CoreArea()/baseArea - 1,
			TempReduction: reduction(baseRise, an.Thermal.PeakRise),
			PeakRise:      an.Thermal.PeakRise,
			Rows:          c.rows,
			Utilization:   baseUtil / (an.Placement.FP.CoreArea() / baseArea),
			Aspect:        c.aspect,
		}).coMetrics(an), an, p)
		return nil
	}

	// ---- Two-point calibration. The downsampled model's bias is
	// systematic and nearly linear in area overhead, with a different slope
	// per estimate family (the rebin, ERI-stretch and wrapper-spread
	// transforms distort the power map differently). One exact anchor per
	// family — the largest-area candidate, where the bias is largest —
	// fixes the slope; the coarse baseline fixes the intercept. Anchors run
	// through the exact pipeline above, so their measurements are reused
	// verbatim as sweep points (and as HW lineage parents): when the
	// anchors sit on the true front, as the largest temperature reducers
	// usually do, the calibration is free.
	rb := baseRise / cbase.PeakRise
	lerpRatio := func(anchor *adaptiveCandidate, exactRise float64) func(float64) float64 {
		if anchor == nil || !anchor.estValid || anchor.rawRise <= 0 || anchor.estArea <= 0 {
			return func(float64) float64 { return rb }
		}
		r1 := exactRise / anchor.rawRise
		a1 := anchor.estArea
		return func(a float64) float64 { return rb + (r1-rb)*(a/a1) }
	}
	calDefault := func(float64) float64 { return rb }
	calERI := calDefault
	var anchorDefAn *flow.Analysis
	if wantDefault || wantHW {
		di := 0
		for i, ov := range overheads {
			if ov > overheads[di] {
				di = i
			}
		}
		d0 := defaultAt[0][di]
		if d0.estValid {
			an, err := measureDefault(ctx, aspects[0], d0, wantDefault)
			if err != nil {
				return nil, err
			}
			d0.anchored = true
			anchorDefAn = an
			calDefault = lerpRatio(d0, an.Thermal.PeakRise)
			stats.Anchors++
		}
	}
	if wantERI && len(eriCands) > 0 {
		e0 := eriCands[0]
		for _, c := range eriCands[1:] {
			if c.rows > e0.rows {
				e0 = c
			}
		}
		if e0.estValid {
			if err := measureERI(ctx, e0); err != nil {
				return nil, err
			}
			e0.anchored = true
			calERI = lerpRatio(e0, e0.point.PeakRise)
			stats.Anchors++
		}
	}
	for _, c := range cands {
		if !c.estValid {
			continue
		}
		// HW estimates ride the Default calibration: they are built on the
		// same rebinned power map, and the wrapper spread does not change
		// the downsampling bias profile enough to warrant a third anchor.
		if c.strategy == StrategyERI {
			c.estRise = c.rawRise * calERI(c.estArea)
		} else {
			c.estRise = c.rawRise * calDefault(c.estArea)
		}
	}

	// Deterministic fault injection for the harness' negative check: bias
	// every odd-indexed estimate so the triage provably drops true-front
	// points.
	if af.InjectEstRiseBiasC != 0 {
		for _, c := range cands {
			if c.estValid && c.index%2 == 1 {
				c.estRise += af.InjectEstRiseBiasC
			}
		}
	}

	// ---- Triage: margin-dominance on (area overhead, estimated rise). ----
	triage(cands, af.Margin)
	for _, c := range cands {
		if c.anchored {
			// Anchor measurements are already in hand; dropping them would
			// discard paid-for exact data.
			c.survives = true
		}
		if c.survives {
			stats.Survivors++
		}
	}
	if af.MaxExact > 0 {
		kept := 0
		for _, c := range cands {
			if !c.survives || c.anchored {
				continue
			}
			if kept < af.MaxExact {
				kept++
			} else {
				c.survives = false
				stats.Truncated++
			}
		}
	}
	stats.CoarseSolves = int(pool.solves.Load())

	// ---- Phase 2: exact refinement of the survivors, on the same task
	// shape (and with the same lineage threading) as the classic sweep. ----
	var exactTasks []func(context.Context) error
	var extraParents atomic.Int64
	if wantDefault || wantHW {
		for ai, asp := range aspects {
			for i := range overheads {
				d := defaultAt[ai][i]
				var h *adaptiveCandidate
				if wantHW {
					h = hwAt[ai][i]
				}
				needDefault := wantDefault && d.survives
				needHW := h != nil && h.survives
				if !needHW && (!needDefault || d.anchored) {
					continue
				}
				if !needDefault && needHW && !d.anchored {
					extraParents.Add(1)
				}
				asp, d, h := asp, d, h
				exactTasks = append(exactTasks, func(tctx context.Context) error {
					an := anchorDefAn
					var err error
					if !d.anchored {
						an, err = measureDefault(tctx, asp, d, needDefault)
						if err != nil {
							return err
						}
					}
					if !needHW {
						return nil
					}
					spots := hotspot.Detect(an.Thermal.RiseMap(), detect)
					if !d.anchored && !opts.KeepAnalyses && f.Config.PowerDeltaGateW <= 0 {
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
						hp, err = HotspotWrapper(an.Placement, spots, wopts)
					}
					if err != nil {
						return provenance(fmt.Errorf("core: adaptive HW %.3f: %w", h.overhead, err), StrategyHW, h.index)
					}
					han, err := f.AnalyzeWithCtx(tctx, hp, flow.AnalyzeOptions{Parent: an, Delta: hdelta})
					if err != nil {
						return provenance(fmt.Errorf("core: adaptive HW %.3f: %w", h.overhead, err), StrategyHW, h.index)
					}
					exactSolves.Add(1)
					h.point = keep((&EfficiencyPoint{
						Strategy:      StrategyHW,
						AreaOverhead:  han.Placement.FP.CoreArea()/baseArea - 1,
						TempReduction: reduction(baseRise, han.Thermal.PeakRise),
						PeakRise:      han.Thermal.PeakRise,
						Utilization:   baseUtil / (han.Placement.FP.CoreArea() / baseArea),
						Aspect:        asp,
					}).coMetrics(han), han, hp)
					return nil
				})
			}
		}
	}
	for _, c := range eriCands {
		if !c.survives || c.anchored {
			continue
		}
		c := c
		exactTasks = append(exactTasks, func(tctx context.Context) error {
			return measureERI(tctx, c)
		})
	}
	if err := taskgroup.Run(ctx, exactTasks, opts.Workers); err != nil {
		return nil, err
	}
	stats.ExactSolves = int(exactSolves.Load())
	stats.ExtraParents = int(extraParents.Load())

	// Assemble in candidate-enumeration order (Default, ERI, HW — the
	// classic sweep's grouping) and fold the est-vs-exact errors into the
	// histogram.
	for _, c := range cands {
		if c.point == nil {
			continue
		}
		if c.estValid {
			stats.addErr(c.estRise, c.point.PeakRise)
		}
		result.Points = append(result.Points, *c.point)
	}
	return result, nil
}

// countLE returns how many values of the sorted slice are <= x.
func countLE(sorted []int, x int) int {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := (lo + hi) / 2
		if sorted[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// triage marks the surviving candidates: a candidate is dropped only when
// another candidate dominates its estimate with at least margin*range to
// spare on the estimated-rise axis (area is exact, so plain dominance
// applies there; the strict-improvement requirement keeps duplicates
// alive). Estimate-less candidates always survive. A margin of +Inf
// disables triage.
func triage(cands []*adaptiveCandidate, margin float64) {
	if math.IsInf(margin, 1) {
		for _, c := range cands {
			c.survives = true
		}
		return
	}
	// Rise range over the valid estimates.
	first := true
	var loR, hiR float64
	for _, c := range cands {
		if !c.estValid {
			continue
		}
		if first {
			loR, hiR = c.estRise, c.estRise
			first = false
			continue
		}
		loR, hiR = math.Min(loR, c.estRise), math.Max(hiR, c.estRise)
	}
	mR := margin * (hiR - loR)
	for _, s := range cands {
		if !s.estValid {
			s.survives = true
			continue
		}
		s.survives = true
		for _, q := range cands {
			if q == s || !q.estValid {
				continue
			}
			if q.estArea <= s.estArea && q.estRise <= s.estRise-mR &&
				(q.estArea < s.estArea || q.estRise < s.estRise) {
				s.survives = false
				break
			}
		}
	}
}
