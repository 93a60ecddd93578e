package sparse

import (
	"math"
	"math/rand"
	"testing"
)

// laplacian1D builds the classic tridiagonal SPD matrix (2 on the diagonal,
// -1 off) with Dirichlet ends: a stencil with NY = NL = 1.
func laplacian1D(n int) *Stencil7 {
	m := NewStencil7(n, 1, 1)
	for i := range m.Diag {
		m.Diag[i] = 2
		if i > 0 {
			m.X[i] = -1
		}
	}
	return m
}

// laplacian2D builds the 5-point SPD grid Laplacian on an nx-by-ny grid with
// a small diagonal shift (every node weakly tied to a reference), mirroring
// the structure of the thermal system.
func laplacian2D(nx, ny int) *Stencil7 {
	m := NewStencil7(nx, ny, 1)
	setLinks(m, -1)
	for i := range m.Diag {
		m.Diag[i] = 0.01 // tie to reference keeps the matrix non-singular
	}
	eachLink(m, func(i, j, _ int, _ *float64) {
		m.Diag[i]++
		m.Diag[j]++
	})
	return m
}

// setLinks sets every link of m to v.
func setLinks(m *Stencil7, v float64) {
	eachLink(m, func(_, _, _ int, p *float64) { *p = v })
}

// eachLink calls fn for every stored lower link (i, j), j < i, with its
// axis (0 = z, 1 = y, 2 = x) and a pointer to its value, in row order and
// stencil order within a row.
func eachLink(m *Stencil7, fn func(i, j, axis int, v *float64)) {
	nx, nxy := m.NX, m.NX*m.NY
	for i := range m.Diag {
		if i/nxy > 0 {
			fn(i, i-nxy, 0, &m.Z[i])
		}
		if (i/nx)%m.NY > 0 {
			fn(i, i-nx, 1, &m.Y[i])
		}
		if i%nx > 0 {
			fn(i, i-1, 2, &m.X[i])
		}
	}
}

// scale multiplies every matrix entry by f.
func scale(m *Stencil7, f float64) {
	for _, a := range [][]float64{m.Diag, m.Z, m.Y, m.X} {
		for i := range a {
			a[i] *= f
		}
	}
}

func residualNorm(m *Stencil7, b, x []float64) float64 {
	r := make([]float64, m.N())
	m.MatVec(x, r)
	s, bs := 0.0, 0.0
	for i := range r {
		d := b[i] - r[i]
		s += d * d
		bs += b[i] * b[i]
	}
	return math.Sqrt(s) / math.Sqrt(bs)
}

func TestCGSolvesTridiagonal(t *testing.T) {
	n := 50
	m := laplacian1D(n)
	// Manufactured solution.
	want := make([]float64, n)
	for i := range want {
		want[i] = math.Sin(float64(i) / 5)
	}
	b := make([]float64, n)
	m.MatVec(want, b)
	x := make([]float64, n)
	iters, res, err := NewCG(m, CGOptions{Tolerance: 1e-12}).Solve(b, x)
	if err != nil {
		t.Fatal(err)
	}
	if iters <= 0 {
		t.Fatalf("expected iterative work, got %d iterations", iters)
	}
	if res > 1e-12 {
		t.Fatalf("residual %g above tolerance", res)
	}
	for i := range x {
		if math.Abs(x[i]-want[i]) > 1e-8 {
			t.Fatalf("x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
}

// TestCGParallelMatchesSerial requires the parallel solve to reproduce the
// serial one bit for bit: every reduction is summed per grid line in line
// order, whatever the worker count.
func TestCGParallelMatchesSerial(t *testing.T) {
	m := laplacian2D(40, 40)
	rng := rand.New(rand.NewSource(7))
	b := make([]float64, m.N())
	for i := range b {
		b[i] = rng.Float64()
	}
	xs := make([]float64, m.N())
	if _, _, err := NewCG(m, CGOptions{Workers: 1, Tolerance: 1e-11}).Solve(b, xs); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 4} {
		c := NewCG(m, CGOptions{Workers: workers, Tolerance: 1e-11})
		if c.Workers() != workers {
			t.Fatalf("explicit worker request %d not honored, got %d", workers, c.Workers())
		}
		xp := make([]float64, m.N())
		if _, _, err := c.Solve(b, xp); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range xp {
			if xp[i] != xs[i] {
				t.Fatalf("workers=%d: x[%d] = %v, serial %v", workers, i, xp[i], xs[i])
			}
		}
	}
}

func TestCGWarmStartConvergesFaster(t *testing.T) {
	m := laplacian2D(30, 30)
	b := make([]float64, m.N())
	for i := range b {
		b[i] = 1
	}
	c := NewCG(m, CGOptions{Workers: 1})
	cold := make([]float64, m.N())
	coldIters, _, err := c.Solve(b, cold)
	if err != nil {
		t.Fatal(err)
	}
	// Warm start from the exact solution: must converge immediately.
	again := make([]float64, m.N())
	copy(again, cold)
	warmIters, res, err := c.Solve(b, again)
	if err != nil {
		t.Fatal(err)
	}
	if warmIters != 0 {
		t.Fatalf("warm start from the solution took %d iterations", warmIters)
	}
	if res > 1e-9 {
		t.Fatalf("warm-start residual %g", res)
	}
	// Warm start from a nearby RHS's solution: must beat the cold count.
	b2 := make([]float64, m.N())
	for i := range b2 {
		b2[i] = 1.05
	}
	near := make([]float64, m.N())
	copy(near, cold)
	nearIters, _, err := c.Solve(b2, near)
	if err != nil {
		t.Fatal(err)
	}
	if nearIters >= coldIters {
		t.Fatalf("warm start (%d iterations) no better than cold start (%d)", nearIters, coldIters)
	}
}

func TestCGZeroRHS(t *testing.T) {
	m := laplacian1D(10)
	x := make([]float64, 10)
	for i := range x {
		x[i] = 3 // stale warm-start content must be cleared
	}
	iters, res, err := NewCG(m, CGOptions{}).Solve(make([]float64, 10), x)
	if err != nil || iters != 0 || res != 0 {
		t.Fatalf("zero RHS: iters=%d res=%g err=%v", iters, res, err)
	}
	for i, v := range x {
		if v != 0 {
			t.Fatalf("x[%d] = %g, want 0", i, v)
		}
	}
}

func TestCGDimensionMismatch(t *testing.T) {
	m := laplacian1D(10)
	if _, _, err := NewCG(m, CGOptions{}).Solve(make([]float64, 9), make([]float64, 10)); err == nil {
		t.Fatal("mismatched vector length must fail")
	}
}

func TestCGNotPositiveDefinite(t *testing.T) {
	m := laplacian1D(5)
	for i := range m.Diag {
		m.Diag[i] = -2 // makes the matrix negative definite
	}
	b := []float64{1, 1, 1, 1, 1}
	if _, _, err := NewCG(m, CGOptions{}).Solve(b, make([]float64, 5)); err == nil {
		t.Fatal("negative-definite system must be rejected")
	}
}

func TestCGMaxIterations(t *testing.T) {
	m := laplacian2D(20, 20)
	b := make([]float64, m.N())
	for i := range b {
		b[i] = float64(i % 7)
	}
	_, _, err := NewCG(m, CGOptions{MaxIterations: 2, Tolerance: 1e-14}).Solve(b, make([]float64, m.N()))
	if err == nil {
		t.Fatal("unreachable tolerance within 2 iterations must error")
	}
}

func TestCGReuseAfterMatrixValueChange(t *testing.T) {
	// The thermal solver refreshes matrix values in place when the die
	// geometry changes; the bound CG must pick the new values up.
	m := laplacian2D(15, 15)
	c := NewCG(m, CGOptions{Workers: 1})
	b := make([]float64, m.N())
	for i := range b {
		b[i] = 1
	}
	x1 := make([]float64, m.N())
	if _, _, err := c.Solve(b, x1); err != nil {
		t.Fatal(err)
	}
	scale(m, 2)
	x2 := make([]float64, m.N())
	copy(x2, x1) // warm start from the old solution
	if _, _, err := c.Solve(b, x2); err != nil {
		t.Fatal(err)
	}
	if got := residualNorm(m, b, x2); got > 1e-8 {
		t.Fatalf("solution stale after value refresh: residual %g", got)
	}
	// Scaling A by 2 halves the solution.
	for i := range x2 {
		if math.Abs(x2[i]-x1[i]/2) > 1e-6 {
			t.Fatalf("x2[%d] = %g, want %g", i, x2[i], x1[i]/2)
		}
	}
}

func TestWorkersAutoCap(t *testing.T) {
	// In auto mode tiny systems must not spin up a pool at all.
	if w := NewCG(laplacian1D(100), CGOptions{}).Workers(); w != 1 {
		t.Fatalf("100-row system got %d workers in auto mode, want 1", w)
	}
}
