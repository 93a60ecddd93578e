package flow

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"thermplace/internal/bench"
	"thermplace/internal/celllib"
	"thermplace/internal/congestion"
	"thermplace/internal/place"
	"thermplace/internal/taskgroup"
)

// sameAnalysis reports whether a and b are deeply equal, == on every float,
// apart from stateID: a sequence number of the flow that solved the field.
func sameAnalysis(a, b *Analysis) bool {
	ac, bc := *a, *b
	ac.stateID, bc.stateID = 0, 0
	return reflect.DeepEqual(&ac, &bc)
}

// atLeastTwoProcs raises GOMAXPROCS to 2 for the test when the host runs
// fewer, so the analysis lanes (and -race) really run concurrently.
func atLeastTwoProcs(t *testing.T) {
	t.Helper()
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// twinFlows builds two flows over one small design and workload, so two
// independent sequences of analyses see identical inputs and solver pools.
func twinFlows(t *testing.T, cfg Config) (*Flow, *Flow) {
	t.Helper()
	f := smallFlow(t)
	f.Config = cfg
	g := New(f.Design, f.Workload, cfg)
	t.Cleanup(f.Close)
	t.Cleanup(g.Close)
	return f, g
}

// serialAnalysis is the reference the two-lane analysis must reproduce:
// lane A, then lane B on the calling goroutine, with the wirelength from its
// own all-nets pass.
func serialAnalysis(t *testing.T, f *Flow, p *place.Placement, opts AnalyzeOptions) *Analysis {
	t.Helper()
	p.WarmNetBBoxes()
	an, err := f.thermalLane(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if f.coAnalysisOn(opts) {
		an.Congestion = congestion.Estimate(p, f.Config.Congestion)
		an.HPWL = p.TotalHPWL()
	}
	return an
}

// reflowSweep analyzes the flow's baseline reflowed to each utilization,
// with the baseline analysis as lineage parent, as the sweep's Default
// points do, on a task group of the given size.
func reflowSweep(t *testing.T, f *Flow, base *Analysis, utils []float64, workers int) []*Analysis {
	t.Helper()
	ans := make([]*Analysis, len(utils))
	tasks := make([]func(context.Context) error, len(utils))
	for i, u := range utils {
		tasks[i] = func(ctx context.Context) error {
			p, delta, err := f.ReflowAt(u)
			if err != nil {
				return err
			}
			ans[i], err = f.AnalyzeWithCtx(ctx, p, AnalyzeOptions{Parent: base, Delta: delta})
			return err
		}
	}
	if err := taskgroup.Run(context.Background(), tasks, workers); err != nil {
		t.Fatal(err)
	}
	return ans
}

// TestAnalysisLanesMatchSerialReference runs the two-lane analysis on one
// flow and the serial lanes on a twin flow, over the four analysis paths —
// from scratch, incremental (parent + delta), gate-skip and a 2-worker
// sweep — and requires every Analysis field to be ==. Under -race it also
// checks that the lanes share no unsynchronized state.
func TestAnalysisLanesMatchSerialReference(t *testing.T) {
	atLeastTwoProcs(t)
	f, g := twinFlows(t, FastConfig())

	base, err := f.AnalyzeBaseline()
	if err != nil {
		t.Fatal(err)
	}
	gp, err := g.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	refBase := serialAnalysis(t, g, gp, AnalyzeOptions{})
	if !sameAnalysis(base, refBase) {
		t.Fatal("from scratch: two-lane analysis differs from the serial lanes")
	}

	point := func(label string, p *place.Placement, delta *place.Delta) {
		t.Helper()
		an, err := f.AnalyzeWith(p, AnalyzeOptions{Parent: base, Delta: delta})
		if err != nil {
			t.Fatal(err)
		}
		ref := serialAnalysis(t, g, p, AnalyzeOptions{Parent: refBase, Delta: delta})
		if !sameAnalysis(an, ref) {
			t.Fatalf("%s: two-lane analysis differs from the serial lanes", label)
		}
	}
	p, delta, err := f.ReflowAt(0.75)
	if err != nil {
		t.Fatal(err)
	}
	point("incremental", p, delta)

	// The gate compares power maps on one grid geometry, so the gated child
	// moves a few cells inside the baseline floorplan instead of reflowing.
	f.Config.PowerDeltaGateW, g.Config.PowerDeltaGateW = 1e9, 1e9
	twin := base.Placement.Clone()
	twin.BeginDelta()
	moved := 0
	for _, inst := range f.Design.Instances() {
		l, ok := twin.Loc(inst)
		if inst.IsFiller() || !ok || l.X+8*twin.FP.SiteWidth >= twin.FP.Core.Xhi-inst.Master.Width {
			continue
		}
		l.X += 8 * twin.FP.SiteWidth
		twin.SetLoc(inst, l)
		if moved++; moved == 12 {
			break
		}
	}
	point("gate-skip", twin, twin.EndDelta())
	if f.GateSkips() != 1 || g.GateSkips() != 1 {
		t.Fatalf("gate-skip path not taken: %d and %d skips", f.GateSkips(), g.GateSkips())
	}
	f.Config.PowerDeltaGateW, g.Config.PowerDeltaGateW = 0, 0

	utils := []float64{0.7, 0.72, 0.78, 0.82}
	ans := reflowSweep(t, f, base, utils, 2)
	for i, u := range utils {
		p, delta, err := g.ReflowAt(u)
		if err != nil {
			t.Fatal(err)
		}
		ref := serialAnalysis(t, g, p, AnalyzeOptions{Parent: refBase, Delta: delta})
		if !sameAnalysis(ans[i], ref) {
			t.Fatalf("2-worker sweep point %d: two-lane analysis differs from the serial lanes", i)
		}
	}
}

// TestAnalysisSameBitsAtAnyGOMAXPROCS runs a baseline analysis and a short
// lineage sweep on a thermal grid large enough for a parallel CG pool, once
// at GOMAXPROCS 1 (serial CG, lanes inline) and once at GOMAXPROCS 4 (pool
// workers, concurrent lanes and sweep points), and requires every float of
// every analysis to be ==.
func TestAnalysisSameBitsAtAnyGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	cfg := FastConfig()
	cfg.Thermal.NX, cfg.Thermal.NY = 88, 88 // 69,696 unknowns: split at GOMAXPROCS >= 2
	utils := []float64{0.7, 0.78}
	proto := smallFlow(t)

	run := func(procs int) []*Analysis {
		runtime.GOMAXPROCS(procs)
		f := New(proto.Design, proto.Workload, cfg)
		defer f.Close()
		base, err := f.AnalyzeBaseline()
		if err != nil {
			t.Fatal(err)
		}
		ans := reflowSweep(t, f, base, utils, 0)
		f.mu.Lock()
		workers := f.pools[0].solvers[0].s.Workers()
		f.mu.Unlock()
		if want := min(procs, 2); workers != want {
			t.Fatalf("GOMAXPROCS %d: pooled solver runs %d CG workers, want %d", procs, workers, want)
		}
		return append([]*Analysis{base}, ans...)
	}
	serial, parallel := run(1), run(4)
	for i := range serial {
		if !sameAnalysis(serial[i], parallel[i]) {
			t.Fatalf("analysis %d differs between GOMAXPROCS 1 and 4 (peak rise %v vs %v)",
				i, serial[i].PeakRise(), parallel[i].PeakRise())
		}
	}
}

// TestHPWLIsCongestionWirelength pins the equality that lets the analysis
// take its wirelength from the congestion estimate instead of a second
// all-nets pass: Analysis.HPWL == Placement.TotalHPWL bit for bit, on every
// scenario family, for a baseline and a reflowed placement.
func TestHPWLIsCongestionWirelength(t *testing.T) {
	lib := celllib.Default65nm()
	for _, fam := range bench.Families() {
		gen, err := bench.Scenario{Family: fam, Seed: 3, TargetCells: 1200}.Generate(lib)
		if err != nil {
			t.Fatal(err)
		}
		cfg := ScenarioConfig(gen.Scenario)
		cfg.SimCycles, cfg.RefinePasses = 32, 0
		cfg.Thermal.NX, cfg.Thermal.NY = 16, 16
		f := New(gen.Design, gen.Workload, cfg)
		base, err := f.AnalyzeBaseline()
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		p, delta, err := f.ReflowAt(cfg.Utilization * 0.85)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		an, err := f.AnalyzeWith(p, AnalyzeOptions{Parent: base, Delta: delta})
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		for _, a := range []*Analysis{base, an} {
			if a.HPWL <= 0 || a.HPWL != a.Placement.TotalHPWL() {
				t.Fatalf("%s: HPWL %v, TotalHPWL %v", fam, a.HPWL, a.Placement.TotalHPWL())
			}
		}
		f.Close()
	}
}
