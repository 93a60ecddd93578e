package thermal

import (
	"runtime"
	"testing"
	"time"

	"thermplace/internal/geom"
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

// pooledConfig returns a solver configuration whose CG is split across pool
// workers: a grid above the size sparse.AutoWorkers keeps serial, with
// GOMAXPROCS raised to 2 for the test when the host runs fewer.
func pooledConfig(t *testing.T) Config {
	t.Helper()
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
	cfg := DefaultConfig()
	cfg.NX, cfg.NY = 88, 88 // 69,696 unknowns: at least two pool workers
	return cfg
}

// TestSolverCloseReleasesGoroutines is the goroutine-leak regression for
// thermal.Solver: repeated build / solve / Close cycles — and one-shot
// thermal.Solve calls, which close their internal solver — must leave the
// goroutine count where it started.
func TestSolverCloseReleasesGoroutines(t *testing.T) {
	cfg := pooledConfig(t)
	pm := geom.NewGrid(cfg.NX, cfg.NY, geom.Rect{Xlo: 0, Ylo: 0, Xhi: 360, Yhi: 360})
	pm.Fill(0.02 / float64(cfg.NX*cfg.NY))

	base := runtime.NumGoroutine()
	for cycle := 0; cycle < 5; cycle++ {
		s, err := NewSolver(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if s.Workers() < 2 {
			t.Fatalf("solver runs on %d worker(s); the test needs a parallel CG pool", s.Workers())
		}
		if _, err := s.Solve(pm); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Solve(pm); err != nil { // warm re-solve on the pool
			t.Fatal(err)
		}
		s.Close()
	}
	waitGoroutines(t, base)

	// The one-shot path must not leave its internal solver's pool behind.
	for cycle := 0; cycle < 3; cycle++ {
		if _, err := Solve(pm, cfg); err != nil {
			t.Fatal(err)
		}
	}
	waitGoroutines(t, base)
}
