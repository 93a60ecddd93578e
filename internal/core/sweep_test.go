package core

import (
	"fmt"
	"math"
	"testing"

	"thermplace/internal/bench"
	"thermplace/internal/celllib"
	"thermplace/internal/flow"
	"thermplace/internal/netlist"
)

// comparePoints requires two sweep results to be exactly identical: same
// point identities in order and bit-identical floats.
func comparePoints(t *testing.T, label string, a, b *SweepResult) {
	t.Helper()
	if a.Baseline.PeakRise() != b.Baseline.PeakRise() {
		t.Fatalf("%s: baseline differs: %v vs %v", label, a.Baseline.PeakRise(), b.Baseline.PeakRise())
	}
	if len(a.Points) != len(b.Points) {
		t.Fatalf("%s: point count differs: %d vs %d", label, len(a.Points), len(b.Points))
	}
	for i := range a.Points {
		x, y := a.Points[i], b.Points[i]
		if x.Strategy != y.Strategy || x.Rows != y.Rows ||
			x.PeakRise != y.PeakRise || x.TempReduction != y.TempReduction ||
			x.AreaOverhead != y.AreaOverhead || x.Utilization != y.Utilization {
			t.Fatalf("%s: point %d differs:\n  a %+v\n  b %+v", label, i, x, y)
		}
	}
}

// TestSweepWorkersEdgeCases checks the documented Workers semantics: zero
// picks GOMAXPROCS, negative values behave like zero, and any setting is
// bit-identical to the sequential sweep.
func TestSweepWorkersEdgeCases(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-sweep comparison skipped in -short mode")
	}
	run := func(workers int) *SweepResult {
		f := hotFlow(t, "mult8")
		defer f.Close()
		res, err := SweepEfficiency(f, SweepOptions{
			Overheads: []float64{0.2},
			Workers:   workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	ref := run(1)
	for _, workers := range []int{0, -2, 7} {
		comparePoints(t, fmt.Sprintf("workers=%d", workers), ref, run(workers))
	}
}

// TestSweepSinglePoint checks the degenerate single-overhead sweep: one
// Default point, one ERI point, at most one HW point, all positive.
func TestSweepSinglePoint(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep skipped in -short mode")
	}
	f := hotFlow(t, "mult8")
	defer f.Close()
	res, err := SweepEfficiency(f, SweepOptions{Overheads: []float64{0.25}, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.PointsFor(StrategyDefault)); n != 1 {
		t.Errorf("single-overhead sweep produced %d Default points", n)
	}
	if n := len(res.PointsFor(StrategyERI)); n != 1 {
		t.Errorf("single-overhead sweep produced %d ERI points", n)
	}
	if n := len(res.PointsFor(StrategyHW)); n > 1 {
		t.Errorf("single-overhead sweep produced %d HW points", n)
	}
	for _, pt := range res.Points {
		if pt.AreaOverhead <= 0 {
			t.Errorf("%s point has non-positive area overhead %v", pt.Strategy, pt.AreaOverhead)
		}
	}
	// A single ERI row count must also produce exactly one ERI point.
	res, err = SweepEfficiency(f, SweepOptions{
		Overheads:  []float64{0.25},
		ERIRows:    []int{4},
		Strategies: []Strategy{StrategyERI},
		Workers:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 || res.Points[0].Rows != 4 {
		t.Fatalf("ERI-only single-point sweep returned %+v", res.Points)
	}
}

// TestSweepConcurrentErrorPropagation checks that a failing worker aborts a
// concurrent sweep with an error, not a partial result or a hang.
func TestSweepConcurrentErrorPropagation(t *testing.T) {
	d := netlist.NewDesign("loop", celllib.Default65nm())
	u1, _ := d.AddInstance("u1", "INV_X1", "u")
	u2, _ := d.AddInstance("u2", "INV_X1", "u")
	n1 := d.GetOrCreateNet("n1")
	n2 := d.GetOrCreateNet("n2")
	_ = d.Connect(u1, "A", n2)
	_ = d.Connect(u1, "Z", n1)
	_ = d.Connect(u2, "A", n1)
	_ = d.Connect(u2, "Z", n2)
	for _, workers := range []int{4, -1} {
		f := flow.New(d, bench.UniformWorkload(0.2), flow.FastConfig())
		res, err := SweepEfficiency(f, SweepOptions{
			Overheads: []float64{0.1, 0.2, 0.3},
			Workers:   workers,
		})
		f.Close()
		if err == nil {
			t.Fatalf("workers=%d: sweep on an unsimulatable design returned %+v, want error", workers, res)
		}
	}
}

// TestSweepIncrementalBitIdentical is the engine-level half of the
// incremental pipeline's guarantee: a sweep whose Default points reflow
// from the cached baseline and whose power reports update through
// placement deltas must be == (on every float) to the from-scratch sweep,
// sequentially and concurrently.
func TestSweepIncrementalBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-sweep comparison skipped in -short mode")
	}
	run := func(incremental bool, workers int) *SweepResult {
		f := hotFlow(t, "mult8")
		defer f.Close()
		res, err := SweepEfficiency(f, SweepOptions{
			Overheads:   []float64{0.15, 0.3},
			Workers:     workers,
			Incremental: incremental,
		})
		if err != nil {
			t.Fatalf("incremental=%v workers=%d: %v", incremental, workers, err)
		}
		return res
	}
	ref := run(false, 1)
	comparePoints(t, "incremental sequential", ref, run(true, 1))
	comparePoints(t, "incremental concurrent", ref, run(true, 4))
}

// TestSweepIncrementalWithGateStaysClose opts into the power-delta
// approximation gate on top of the incremental sweep and checks the results
// stay within the gate's expected influence (the gate only ever skips
// solves whose inputs barely moved).
func TestSweepIncrementalWithGateStaysClose(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-sweep comparison skipped in -short mode")
	}
	f := hotFlow(t, "mult8")
	defer f.Close()
	f.Config.PowerDeltaGateW = 1e-9
	res, err := SweepEfficiency(f, SweepOptions{
		Overheads:   []float64{0.2},
		Incremental: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := hotFlow(t, "mult8")
	defer g.Close()
	ref, err := SweepEfficiency(g, SweepOptions{Overheads: []float64{0.2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(ref.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(res.Points), len(ref.Points))
	}
	for i := range res.Points {
		a, b := res.Points[i], ref.Points[i]
		if d := a.PeakRise - b.PeakRise; d > 1e-3 || d < -1e-3 {
			t.Fatalf("gated point %d drifted %v C from the exact sweep", i, d)
		}
	}
}

// TestERIDeltaComposesWithDefaultDelta follows the incremental lineage one
// step further than the sweep does: a Default point reflowed from the
// baseline (full delta) with an ERI insertion stacked on top (sparse
// delta). The merged baseline→ERI delta must be full — the reflow moved
// everything — and updating the baseline power report across it must equal
// a from-scratch estimate of the final placement bit for bit.
func TestERIDeltaComposesWithDefaultDelta(t *testing.T) {
	f := hotFlow(t, "mult8")
	defer f.Close()
	base, err := f.AnalyzeBaseline()
	if err != nil {
		t.Fatal(err)
	}
	defPl, d1, err := f.ReflowAt(f.Config.Utilization / 1.2)
	if err != nil {
		t.Fatal(err)
	}
	defAn, err := f.AnalyzeWith(defPl, flow.AnalyzeOptions{Parent: base, Delta: d1})
	if err != nil {
		t.Fatal(err)
	}
	if len(defAn.Hotspots) == 0 {
		t.Skip("relaxed placement has no hotspots to target")
	}
	eriPl, d2, err := EmptyRowInsertionDelta(defPl, defAn.Hotspots, DefaultERIOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	if d2.Empty() || d2.IsFull() {
		t.Fatalf("ERI delta should be surgical, got full=%v empty=%v", d2.IsFull(), d2.Empty())
	}
	merged := d1.Merge(d2)
	if !merged.IsFull() {
		t.Fatal("full Default delta composed with ERI delta must stay full")
	}
	// Updating across the merged (full) delta falls back to the full pass
	// and must equal a fresh estimate; updating the Default report across
	// just the ERI delta must too.
	eriAn, err := f.AnalyzeWith(eriPl, flow.AnalyzeOptions{Parent: defAn, Delta: d2})
	if err != nil {
		t.Fatal(err)
	}
	fromMerged := base.Power.Update(eriPl, merged)
	if got, want := fromMerged.Total(), eriAn.Power.Total(); got != want {
		t.Fatalf("merged-delta power %v != delta-updated power %v", got, want)
	}
}

// TestParetoFrontDegenerateCases pins the front extraction on the shapes an
// adaptive sweep can legitimately produce: duplicate measurements (ties stay
// on the front), a single-point sweep, and a set where one point dominates
// everything else. The cases are built directly on SweepResult, so they hold
// for any producer of Points.
func TestParetoFrontDegenerateCases(t *testing.T) {
	pt := func(area, rise, crit, hpwl float64, over int) EfficiencyPoint {
		return EfficiencyPoint{
			AreaOverhead: area, PeakRise: rise,
			CriticalPathPs: crit, HPWL: hpwl, CongestionOverflows: over,
		}
	}

	t.Run("duplicates", func(t *testing.T) {
		r := &SweepResult{Points: []EfficiencyPoint{
			pt(0.1, 5, 100, 1000, 0),
			pt(0.1, 5, 100, 1000, 0), // identical vector: a tie, not dominated
			pt(0.2, 6, 110, 1100, 1), // strictly worse everywhere
		}}
		if got := r.ParetoFront(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
			t.Fatalf("ParetoFront with duplicates = %v, want [0 1]", got)
		}
		if got := r.Front2D(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
			t.Fatalf("Front2D with duplicates = %v, want [0 1]", got)
		}
	})

	t.Run("single-point", func(t *testing.T) {
		r := &SweepResult{Points: []EfficiencyPoint{pt(0.16, 4, 90, 900, 0)}}
		if got := r.ParetoFront(); len(got) != 1 || got[0] != 0 {
			t.Fatalf("single-point ParetoFront = %v", got)
		}
		if got := r.Front2D(); len(got) != 1 || got[0] != 0 {
			t.Fatalf("single-point Front2D = %v", got)
		}
	})

	t.Run("empty", func(t *testing.T) {
		r := &SweepResult{}
		if got := r.ParetoFront(); len(got) != 0 {
			t.Fatalf("empty ParetoFront = %v", got)
		}
		if got := r.Front2D(); len(got) != 0 {
			t.Fatalf("empty Front2D = %v", got)
		}
	})

	t.Run("all-dominated", func(t *testing.T) {
		r := &SweepResult{Points: []EfficiencyPoint{
			pt(0.3, 9, 130, 1300, 2),
			pt(0.2, 8, 120, 1200, 1),
			pt(0.1, 5, 100, 1000, 0), // dominates everything above
		}}
		if got := r.ParetoFront(); len(got) != 1 || got[0] != 2 {
			t.Fatalf("all-dominated ParetoFront = %v, want [2]", got)
		}
		if got := r.Front2D(); len(got) != 1 || got[0] != 2 {
			t.Fatalf("all-dominated Front2D = %v, want [2]", got)
		}
	})

	// Incomparable points (each better on one axis) all stay on the front.
	t.Run("antichain", func(t *testing.T) {
		r := &SweepResult{Points: []EfficiencyPoint{
			pt(0.1, 9, 100, 1000, 0),
			pt(0.2, 7, 100, 1000, 0),
			pt(0.3, 5, 100, 1000, 0),
		}}
		if got := r.Front2D(); len(got) != 3 {
			t.Fatalf("antichain Front2D = %v, want all three", got)
		}
	})
}

// TestAdaptiveTriageStatsNaNFree pins the NaN-free guarantee of the triage
// statistics a real adaptive run attaches to its SweepResult: every recorded
// scalar is finite and the fronts over the exact points are well defined.
func TestAdaptiveTriageStatsNaNFree(t *testing.T) {
	f := hotFlow(t, "mult8")
	defer f.Close()
	r, err := SweepEfficiency(f, SweepOptions{
		Overheads:   []float64{0.05, 0.40},
		Incremental: true,
		Workers:     2,
		Adaptive:    &AdaptiveOptions{GridScale: 2, Margin: 0.04, CoarseFactor: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := r.Triage
	if ts == nil {
		t.Fatal("adaptive run recorded no triage stats")
	}
	for name, v := range map[string]float64{
		"Margin":     ts.Margin,
		"MaxEstErrC": ts.MaxEstErrC,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("triage stat %s = %v, want finite", name, v)
		}
	}
	for _, p := range r.Points {
		for name, v := range map[string]float64{
			"AreaOverhead": p.AreaOverhead, "PeakRise": p.PeakRise,
			"TempReduction": p.TempReduction, "Utilization": p.Utilization,
			"Aspect": p.Aspect,
		} {
			if math.IsNaN(v) {
				t.Fatalf("point %+v has NaN %s", p, name)
			}
		}
	}
	if got := r.ParetoFront(); len(got) == 0 {
		t.Fatal("adaptive result has an empty Pareto front")
	}
	if got := r.Front2D(); len(got) == 0 {
		t.Fatal("adaptive result has an empty 2D front")
	}
}
