package sparse

import (
	"runtime"
	"testing"
	"time"
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

// TestCGCloseReleasesWorkers is the goroutine-leak regression for the CG
// worker pool: repeated create / parallel-solve / Close cycles must leave
// the goroutine count where it started, and a closed solver must keep
// working serially.
func TestCGCloseReleasesWorkers(t *testing.T) {
	m := NewStencil7(24, 24, 4)
	// Strictly diagonally dominant symmetric stencil: SPD by construction.
	for i := range m.Diag {
		m.Diag[i] = 8
	}
	setLinks(m, -1)
	b := make([]float64, m.N())
	for i := range b {
		b[i] = float64(i%7) + 1
	}

	base := runtime.NumGoroutine()
	var last *CG
	for cycle := 0; cycle < 8; cycle++ {
		cg := NewCG(m, CGOptions{Workers: 4})
		if cg.Workers() != 4 {
			t.Fatalf("explicit worker count not honored: %d", cg.Workers())
		}
		x := make([]float64, m.N())
		if _, _, err := cg.Solve(b, x); err != nil {
			t.Fatal(err)
		}
		cg.Close()
		cg.Close() // Close must be idempotent
		last = cg
	}
	waitGoroutines(t, base)

	// A closed solver still solves, serially, without restarting the pool.
	x := make([]float64, m.N())
	if _, _, err := last.Solve(b, x); err != nil {
		t.Fatalf("solve after Close: %v", err)
	}
	waitGoroutines(t, base)
}
