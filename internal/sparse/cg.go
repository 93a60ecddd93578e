package sparse

import (
	"context"
	"fmt"
	"math"

	"thermplace/internal/fault"
)

// Preconditioner approximates the inverse of the solver's matrix. Apply must
// implement a fixed symmetric positive-definite linear operation (the same
// operator on every call) for the preconditioned conjugate-gradient
// iteration to converge; warm state of any kind inside Apply would silently
// break CG's orthogonality recurrences.
type Preconditioner interface {
	// Apply sets z ≈ A⁻¹r. r must not be modified.
	Apply(r, z []float64)
}

// CtxPreconditioner is a Preconditioner that can abort mid-application when
// a context fires. SolveCtx prefers ApplyCtx when the preconditioner
// implements it, so a cancellation lands inside an expensive application
// (e.g. between multigrid cycles) rather than only between CG iterations.
// When the context never fires, ApplyCtx must be exactly Apply.
type CtxPreconditioner interface {
	Preconditioner
	// ApplyCtx sets z ≈ A⁻¹r, or returns a fault.ErrCanceled-matching error
	// (leaving z unspecified) once ctx fires.
	ApplyCtx(ctx context.Context, r, z []float64) error
}

// CGOptions tunes the conjugate-gradient solver.
type CGOptions struct {
	// Tolerance is the relative residual ||b - A*x|| / ||b|| at which the
	// iteration stops. Zero means the default of 1e-9.
	Tolerance float64
	// MaxIterations bounds the iteration count. Zero means 10*N.
	MaxIterations int
	// Workers is the number of goroutines used for matrix-vector products
	// and reductions; an explicit value is honored as given (clamped to the
	// shared Pool's size when one is supplied, and to the number of grid
	// lines). Zero picks AutoWorkers: GOMAXPROCS, capped so every worker
	// owns at least minRowsPerWorker rows. 1 runs everything on the calling
	// goroutine. The solution does not depend on it: every reduction is
	// summed per grid line, and the line sums are added in line order.
	Workers int
	// Precond replaces the built-in Jacobi (diagonal) preconditioner. The
	// multigrid preconditioner in this package (MG) drops the iteration
	// count of large structured systems several-fold; nil keeps Jacobi.
	Precond Preconditioner
	// Pool is an existing worker pool to run on, so a solver stack (CG plus
	// a multigrid preconditioner) shares one set of goroutines. Nil makes
	// the CG own a private pool, released by Close; a shared pool is left
	// running — its owner closes it.
	Pool *Pool
}

// minRowsPerWorker is the fewest rows a pool worker is given, so a system
// below twice this size solves on the calling goroutine alone. A CG
// iteration meets at a pool barrier once per op, and on an L2-resident
// system the barriers cost what the second core saves; a serial solve also
// leaves that core to the analysis' other lane (package flow). Measured
// with BenchmarkThermalSolveGrid fast-reuse (multigrid, warm-started
// re-solve of a moved hotspot, 20-30 solves per run) on a 2-vCPU x86-64
// host, median ms/solve over 13 runs (5 at 112 and 160), 1 worker vs 2:
//
//	grid        unknowns  1 worker  2 workers
//	40x40x9       14,400      17.1       18.7
//	80x80x9       57,600      58.1       56.7   (within the run spread)
//	112x112x9    112,896     112.7       99.4
//	160x160x9    230,400     219.3      172.8
//
// The crossover sits at about 57,600 unknowns; 2^15 rows per worker keeps
// 80x80x9 and smaller serial and splits 112x112x9 and larger.
const minRowsPerWorker = 1 << 15

// CG is a reusable preconditioned conjugate-gradient solver bound to one
// matrix (Jacobi by default, or the Preconditioner given in the options).
// The scratch vectors and the worker pool live as long as the solver: the
// pool goroutines are started on the first parallel Solve and then parked
// between solves, so repeated warm-started re-solves pay neither allocation
// nor goroutine startup. Call Close to release the pool when the solver is
// no longer needed; a closed solver still works, serially. A CG value is
// not safe for concurrent use.
type CG struct {
	m   *Stencil7
	opt CGOptions

	r, z, p, ap []float64

	// Per-solve state shared with the workers. The barrier in Pool.Run
	// orders writes to alpha/beta/b/x before the workers read them.
	b, x        []float64
	alpha, beta float64

	// workers split the grid lines at bounds (line indices); each worker
	// stores the reduction partial of every line it owns in lineSum, and
	// the caller adds them in line order — the order the serial path adds
	// them in, so the sums are the same for any worker count.
	workers int
	bounds  []int
	lineSum []float64
	// pool runs the partitioned ops; tasks is one prebuilt closure per op
	// code so a solve allocates nothing per iteration. ownPool marks a
	// private pool that Close releases (a shared pool outlives the CG).
	pool    *Pool
	ownPool bool
	tasks   [opCount]func(w int)
}

// Worker op codes.
const (
	opResidual  = iota // r = b - A*x, partial r·r
	opMatVecDot        // ap = A*p, partial p·ap
	opUpdateXR         // x += alpha*p, r -= alpha*ap, partial r·r
	opPrecond          // z = r / diag, partial r·z
	opUpdateP          // p = z + beta*p
	opDotRZ            // partial r·z (external preconditioner)
	opCount
)

// NewCG builds a solver for m. The matrix values may be modified between
// Solve calls (for example when the grid geometry changes).
func NewCG(m *Stencil7, opt CGOptions) *CG {
	n := m.N()
	if opt.Tolerance <= 0 {
		opt.Tolerance = 1e-9
	}
	if opt.MaxIterations <= 0 {
		opt.MaxIterations = 10 * n
	}
	w := opt.Workers
	if w <= 0 {
		w = AutoWorkers(n)
	}
	if opt.Pool != nil && w > opt.Pool.Workers() {
		w = opt.Pool.Workers()
	}
	lines := m.NY * m.NL
	if w > lines {
		w = lines
	}
	if w < 1 {
		w = 1
	}
	c := &CG{
		m:       m,
		opt:     opt,
		r:       make([]float64, n),
		z:       make([]float64, n),
		p:       make([]float64, n),
		ap:      make([]float64, n),
		workers: w,
	}
	if w > 1 {
		c.bounds = chunkBounds(lines, w)
		c.lineSum = make([]float64, lines)
		if opt.Pool != nil {
			c.pool = opt.Pool
		} else {
			c.pool = NewPool(w)
			c.ownPool = true
		}
		for op := 0; op < opCount; op++ {
			op := op
			c.tasks[op] = func(w int) {
				for ln, g := c.bounds[w], c.m.lineAt(c.bounds[w]); ln < c.bounds[w+1]; ln, g = ln+1, c.m.next(g) {
					c.lineSum[ln] = c.runLine(op, g)
				}
			}
		}
	}
	return c
}

// Workers returns the degree of parallelism the solver settled on.
func (c *CG) Workers() int { return c.workers }

// SetPrecond replaces the preconditioner for subsequent solves (nil restores
// the built-in Jacobi). The thermal solver's degradation path uses it to
// retry a non-converged multigrid-preconditioned solve on plain Jacobi.
func (c *CG) SetPrecond(p Preconditioner) { c.opt.Precond = p }

// MaxIterations returns the current iteration budget.
func (c *CG) MaxIterations() int { return c.opt.MaxIterations }

// SetMaxIterations replaces the iteration budget for subsequent solves;
// n <= 0 is ignored.
func (c *CG) SetMaxIterations(n int) {
	if n > 0 {
		c.opt.MaxIterations = n
	}
}

// Close stops the persistent worker goroutines of a privately owned pool
// (a shared CGOptions.Pool is left running for its owner to close).
// Subsequent Solve calls still work but run serially on the calling
// goroutine. Close is idempotent.
func (c *CG) Close() {
	if c.ownPool {
		c.pool.Close()
	}
}

// Solve solves A*x = b, using the incoming contents of x as the initial
// guess (warm start). On success x holds the solution; it returns the
// iteration count and the final relative residual. It is SolveCtx with a
// context that never fires.
func (c *CG) Solve(b, x []float64) (iters int, residual float64, err error) {
	return c.SolveCtx(context.Background(), b, x)
}

// SolveCtx is Solve with cancellation: the context is checked once per CG
// iteration (and, with a CtxPreconditioner, once per preconditioner cycle),
// so even a large solve aborts within a few matrix-vector products of the
// context firing. An abort returns an error matching fault.ErrCanceled and
// leaves x mid-iteration — do not warm-start from it. When the context never
// fires, the iteration is bit-identical to Solve.
//
// A panic inside the solve — in a worker task, or in the preconditioner —
// is contained and returned as a located *fault.ErrPanic instead of
// crashing the caller; the solver and its pool remain usable.
func (c *CG) SolveCtx(ctx context.Context, b, x []float64) (iters int, residual float64, err error) {
	defer func() {
		if v := recover(); v != nil {
			iters, residual = 0, 0
			err = fault.Recovered("sparse.CG.Solve", v)
		}
	}()
	n := c.m.N()
	if len(b) != n || len(x) != n {
		return 0, 0, fmt.Errorf("sparse: vector length %d/%d does not match matrix size %d", len(b), len(x), n)
	}
	bnorm2 := 0.0
	for _, v := range b {
		bnorm2 += v * v
	}
	if bnorm2 == 0 {
		// A is positive definite, so the unique solution is x = 0.
		for i := range x {
			x[i] = 0
		}
		return 0, 0, nil
	}
	bnorm := math.Sqrt(bnorm2)

	c.b, c.x = b, x
	defer func() { c.b, c.x = nil, nil }()

	// done != nil only for cancelable contexts: Background/TODO skip the
	// per-iteration check entirely, keeping the never-fires path free.
	done := ctx.Done()

	rr := c.run(opResidual)
	residual = math.Sqrt(rr) / bnorm
	if residual <= c.opt.Tolerance {
		return 0, residual, nil
	}
	rz, perr := c.precond(ctx)
	if perr != nil {
		return 0, residual, perr
	}
	copy(c.p, c.z)
	for iters = 1; iters <= c.opt.MaxIterations; iters++ {
		if done != nil {
			if cerr := ctx.Err(); cerr != nil {
				return iters - 1, residual, fault.Canceled(cerr)
			}
		}
		pap := c.run(opMatVecDot)
		if pap <= 0 {
			return iters, residual, fmt.Errorf("sparse: CG breakdown (non-positive curvature); matrix not positive definite")
		}
		c.alpha = rz / pap
		rr = c.run(opUpdateXR)
		residual = math.Sqrt(rr) / bnorm
		if residual <= c.opt.Tolerance {
			return iters, residual, nil
		}
		rzNew, perr := c.precond(ctx)
		if perr != nil {
			return iters, residual, perr
		}
		c.beta = rzNew / rz
		rz = rzNew
		c.run(opUpdateP)
	}
	return c.opt.MaxIterations, residual, fmt.Errorf("sparse: CG: %w",
		&fault.ErrNotConverged{Iters: c.opt.MaxIterations, Residual: residual})
}

// precond computes z = M⁻¹r and returns r·z: fused with the reduction for
// the built-in Jacobi, a preconditioner call plus a reduction pass
// otherwise. A CtxPreconditioner is given the context so cancellation can
// land between its internal cycles.
func (c *CG) precond(ctx context.Context) (float64, error) {
	if c.opt.Precond == nil {
		return c.run(opPrecond), nil
	}
	if cp, ok := c.opt.Precond.(CtxPreconditioner); ok && ctx.Done() != nil {
		if err := cp.ApplyCtx(ctx, c.r, c.z); err != nil {
			return 0, err
		}
	} else {
		c.opt.Precond.Apply(c.r, c.z)
	}
	return c.run(opDotRZ), nil
}

// run executes one op over all grid lines, either inline or on the worker
// pool, and returns the sum of the per-line partials added in line order
// (0 for ops without a reduction).
func (c *CG) run(op int) float64 {
	sum := 0.0
	if !c.pool.Parallel(c.workers) {
		for ln, g := 0, c.m.lineAt(0); ln < c.m.NY*c.m.NL; ln, g = ln+1, c.m.next(g) {
			sum += c.runLine(op, g)
		}
		return sum
	}
	c.pool.Run(c.workers, c.tasks[op])
	if op != opUpdateP {
		for _, v := range c.lineSum {
			sum += v
		}
	}
	return sum
}

// runLine executes one op on the nodes of grid line g and returns its
// partial sum, accumulated in node order.
func (c *CG) runLine(op int, g gridLine) float64 {
	lo, hi := g.i0, g.i0+c.m.NX
	switch op {
	case opResidual:
		return c.m.residualLine(c.b, c.x, c.r, g)
	case opMatVecDot:
		return c.m.matVecDotLine(c.p, c.ap, g)
	case opUpdateXR:
		alpha, s := c.alpha, 0.0
		x, r, p, ap := c.x[lo:hi], c.r[lo:hi], c.p[lo:hi], c.ap[lo:hi]
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
			s += r[i] * r[i]
		}
		return s
	case opPrecond:
		s := 0.0
		r, z, diag := c.r[lo:hi], c.z[lo:hi], c.m.Diag[lo:hi]
		for i := range r {
			z[i] = r[i] / diag[i]
			s += r[i] * z[i]
		}
		return s
	case opUpdateP:
		beta := c.beta
		p, z := c.p[lo:hi], c.z[lo:hi]
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	case opDotRZ:
		s := 0.0
		r, z := c.r[lo:hi], c.z[lo:hi]
		for i := range r {
			s += r[i] * z[i]
		}
		return s
	}
	return 0
}
