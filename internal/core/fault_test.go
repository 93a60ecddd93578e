package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"thermplace/internal/fault"
)

// waitGoroutines polls until the goroutine count returns to base, failing
// with a full stack dump if it does not settle.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > %d\n%s", runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSweepCancelMidSweep cancels a sweep stalled inside a thermal solve and
// asserts the typed error and the zero-leak guarantee (the harness
// additionally asserts the <100ms latency bound on the paper-scale sweep).
func TestSweepCancelMidSweep(t *testing.T) {
	base := runtime.NumGoroutine()
	f := hotFlow(t, "mult8")
	// Solve 1 is the baseline; stalling solve 2 parks the first sweep point.
	f.Config.Thermal.Inject = &fault.Injector{StallCGSolveN: 2}
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(50*time.Millisecond, cancel)
	defer timer.Stop()
	_, err := SweepEfficiencyCtx(ctx, f, SweepOptions{Overheads: []float64{0.2}, Workers: 2})
	if !errors.Is(err, fault.ErrCanceled) {
		t.Fatalf("canceled sweep returned %v, want fault.ErrCanceled", err)
	}
	if f.FaultStats().Canceled == 0 {
		t.Fatal("cancellation not recorded in the flow's fault stats")
	}
	f.Close()
	waitGoroutines(t, base)
}

// TestSweepNotConvergedExtraction pins the error taxonomy across the full
// wrapping chain: an injected CG non-convergence inside one sweep point must
// be extractable from the sweep's returned error both as the typed
// *fault.ErrNotConverged and as a *fault.ProvenanceError naming the design,
// the strategy and the point that failed.
func TestSweepNotConvergedExtraction(t *testing.T) {
	f := hotFlow(t, "mult8")
	defer f.Close()
	// Solve 1 is the baseline; solve 2 is the first Default point with
	// Workers=1. FailRetry makes the Jacobi fallback fail too, so the
	// non-convergence surfaces instead of degrading.
	f.Config.Thermal.Inject = &fault.Injector{FailCGSolveN: 2, FailRetry: true}
	_, err := SweepEfficiency(f, SweepOptions{Overheads: []float64{0.2}, Workers: 1})
	if err == nil {
		t.Fatal("sweep with a doubly-failed solve reported success")
	}
	var nc *fault.ErrNotConverged
	if !errors.As(err, &nc) {
		t.Fatalf("ErrNotConverged not extractable through core/flow wrapping: %v", err)
	}
	if nc.Iters <= 0 {
		t.Fatalf("ErrNotConverged lost its fields through wrapping: %+v", nc)
	}
	var pv *fault.ProvenanceError
	if !errors.As(err, &pv) {
		t.Fatalf("sweep error carries no provenance: %v", err)
	}
	if pv.Design != f.Design.Name || pv.Strategy != string(StrategyDefault) || pv.Point != 0 {
		t.Fatalf("wrong provenance %q/%q point %d: %v", pv.Design, pv.Strategy, pv.Point, err)
	}

	// The sweep works once the injection is disarmed (counter already past).
	f.Config.Thermal.Inject = nil
	if _, err := SweepEfficiency(f, SweepOptions{Overheads: []float64{0.2}, Workers: 1}); err != nil {
		t.Fatalf("sweep after surfaced failure: %v", err)
	}
}

// TestSweepCtxBitIdentical asserts the never-fires half of the context
// contract at the sweep level: SweepEfficiencyCtx with a live cancelable
// context is == (every float) to SweepEfficiency.
func TestSweepCtxBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-sweep comparison skipped in -short mode")
	}
	run := func(ctx context.Context) *SweepResult {
		f := hotFlow(t, "mult8")
		defer f.Close()
		res, err := SweepEfficiencyCtx(ctx, f, SweepOptions{Overheads: []float64{0.2}, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	comparePoints(t, "live-context sweep", run(context.Background()), run(ctx))
}
