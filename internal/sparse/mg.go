package sparse

import (
	"context"
	"fmt"
	"math"

	"thermplace/internal/fault"
)

// MGOptions tunes the geometric multigrid preconditioner.
type MGOptions struct {
	// CoarsestN stops the coarsening once a level has at most this many
	// unknowns; that level is solved directly by dense Cholesky. Zero means
	// 128: the factorization is O(n³) and runs on every Refresh, and the
	// W-cycle hits the coarsest level 2^(levels-1) times per application,
	// so a small direct level beats a shallow hierarchy on both counts.
	CoarsestN int
	// Pool runs the red-black smoother, residual, restriction and
	// prolongation of the large levels on a shared worker pool (typically
	// the same pool as the enclosing CG), split by grid lines. Nodes of one
	// colour never read each other and every restricted sum stays within
	// one worker's lines, so the parallel cycle is bit-identical to the
	// serial one for any worker count. Nil keeps every level serial. The
	// pool is never closed by the MG; its owner closes it.
	Pool *Pool
}

// MG is a geometric multigrid W-cycle on a Stencil7. It implements
// Preconditioner, so it plugs into CG via CGOptions.Precond.
//
// The hierarchy coarsens 2x in x and y while keeping all nl layers — the
// thermal stack has only a handful of layers and carries the strong
// boundary coupling, so flattening it buys nothing. Each coarse operator is
// the Galerkin product PᵀAP with piecewise-constant interpolation over the
// 2x2 cell aggregates, which keeps every level a Stencil7: each fine link
// either crosses to exactly one neighbouring aggregate or collapses onto
// the coarse diagonal. Smoothing is red-black Gauss-Seidel — the 7-point
// stencil is bipartite under (ix+iy+l) parity — applied red-then-black
// before the correction and black-then-red after, which makes the cycle a
// fixed symmetric positive-definite operator as CG requires. Every level
// above the second-coarsest takes two coarse corrections (a W-cycle),
// whose iteration counts stay flat as the grid grows; with 4x coarsening
// per level it costs only ~2x the fine-grid work of a V-cycle. The
// coarsest level is solved exactly by dense Cholesky.
//
// The fine matrix is referenced, not copied: after changing its values
// (e.g. a die-geometry refresh), call Refresh to rebuild the coarse
// operators and the coarsest factorization; Refresh is one O(n)
// accumulation pass per level. An MG value is not safe for concurrent use.
type MG struct {
	levels []*mgLevel

	// ctx and ctxErr carry the cancellation state of an ApplyCtx in flight:
	// cycle checks ctx at every level entry and records the abort in ctxErr,
	// unwinding without touching the remaining levels. Both are nil for
	// plain Apply.
	ctx    context.Context
	ctxErr error
}

type mgLevel struct {
	m *Stencil7
	// coarse is the next-coarser level's matrix, nil on the coarsest level.
	coarse *Stencil7

	// b and x are the per-level right-hand side and iterate; r2 and x2
	// carry the second correction of a W-cycle. Each is only allocated on
	// the levels that use it (level 0 works on the caller's vectors, and
	// the coarsest solve is exact, so it never takes a second correction).
	b, x, r2, x2 []float64

	// chol is the dense lower-triangular Cholesky factor of the coarsest
	// level (row-major n*n), nil elsewhere.
	chol []float64

	// The level kernels run on kw workers (kw = 1: serially, on the
	// caller). lineBounds splits the level's grid lines among them and
	// coarseBounds the coarse level's lines, whose fine lines a worker
	// restricts; scratch holds one line of residual per worker. pool and
	// tasks are set on levels large enough to split, and curB/curX/curR/
	// curCX carry the vectors of the kernel in flight to the workers.
	pool                     *Pool
	kw                       int
	lineBounds, coarseBounds []int
	scratch                  [][]float64
	curB, curX, curR, curCX  []float64
	tasks                    [mgOpCount]func(w int)
}

// Level kernels.
const (
	mgJacobiRed = iota // x = b/diag on red nodes
	mgRed              // Gauss-Seidel half-sweep on red nodes
	mgBlack            // Gauss-Seidel half-sweep on black nodes
	mgResidual         // r = b - A*x
	mgRestrict         // coarse b = Pᵀ(b - A*x)
	mgProlong          // x += P*(coarse x) on red nodes
	mgOpCount
)

// Colours of the red-black smoother.
const (
	red = iota
	black
)

// NewMG builds the multigrid hierarchy for m. Matrix values may still be
// zero at this point; call Refresh once they are filled (and again after
// every in-place value change).
func NewMG(m *Stencil7, opt MGOptions) (*MG, error) {
	if err := m.check(); err != nil {
		return nil, &fault.ErrSetup{Stage: "grid", Err: err}
	}
	if opt.CoarsestN <= 0 {
		opt.CoarsestN = 128
	}

	g := &MG{}
	lv := &mgLevel{m: m}
	g.levels = append(g.levels, lv)
	for lv.m.N() > opt.CoarsestN {
		nxc, nyc := (lv.m.NX+1)/2, (lv.m.NY+1)/2
		if nxc*nyc*lv.m.NL >= lv.m.N() {
			break // cannot coarsen further (nx = ny = 1)
		}
		lv.coarse = NewStencil7(nxc, nyc, lv.m.NL)
		lv = &mgLevel{m: lv.coarse}
		g.levels = append(g.levels, lv)
	}
	last := len(g.levels) - 1
	g.levels[last].chol = make([]float64, g.levels[last].m.N()*g.levels[last].m.N())
	for i, lv := range g.levels[:last] {
		n := lv.m.N()
		if i > 0 {
			// Second W-cycle correction.
			lv.r2 = make([]float64, n)
			lv.x2 = make([]float64, n)
		}
		// Restriction target and coarse iterate of the next level, written
		// by this one; level 0 works on the caller's r/z directly.
		next := g.levels[i+1]
		next.b = make([]float64, next.m.N())
		next.x = make([]float64, next.m.N())
		k := 1
		if opt.Pool != nil {
			k = max(1, min(opt.Pool.Workers(), n/minRowsPerWorker, lv.m.NY*lv.m.NL, lv.coarse.NY*lv.coarse.NL))
		}
		lv.setWorkers(k, opt.Pool)
	}
	return g, nil
}

// chunkBounds splits [0, n) into k contiguous ranges.
func chunkBounds(n, k int) []int {
	b := make([]int, k+1)
	for i := 0; i <= k; i++ {
		b[i] = i * n / k
	}
	return b
}

// setWorkers splits the level's lines k ways and, for k > 1, attaches the
// shared pool and prebuilds the partitioned tasks so a cycle allocates
// nothing.
func (lv *mgLevel) setWorkers(k int, p *Pool) {
	lv.kw = k
	lv.lineBounds = chunkBounds(lv.m.NY*lv.m.NL, k)
	lv.coarseBounds = chunkBounds(lv.coarse.NY*lv.coarse.NL, k)
	lv.scratch = make([][]float64, k)
	for w := range lv.scratch {
		lv.scratch[w] = make([]float64, lv.m.NX)
	}
	if k < 2 {
		return
	}
	lv.pool = p
	for op := 0; op < mgOpCount; op++ {
		lv.tasks[op] = func(w int) { lv.runLines(op, w) }
	}
}

// run executes one level kernel, partitioned across the pool workers on
// levels that carry a pool and share by share on the calling goroutine
// otherwise.
func (lv *mgLevel) run(op int, b, x, r, cx []float64) {
	lv.curB, lv.curX, lv.curR, lv.curCX = b, x, r, cx
	if lv.pool.Parallel(lv.kw) {
		lv.pool.Run(lv.kw, lv.tasks[op])
		return
	}
	for w := 0; w < lv.kw; w++ {
		lv.runLines(op, w)
	}
}

// runLines runs one level kernel on worker w's share of the grid lines.
func (lv *mgLevel) runLines(op, w int) {
	m, b, x := lv.m, lv.curB, lv.curX
	lo, hi := lv.lineBounds[w], lv.lineBounds[w+1]
	if op == mgRestrict {
		lv.restrictLines(b, x, lv.curR, lv.scratch[w], lv.coarseBounds[w], lv.coarseBounds[w+1])
		return
	}
	g := m.lineAt(lo)
	for ln := lo; ln < hi; ln, g = ln+1, m.next(g) {
		switch op {
		case mgResidual:
			m.residualLine(b, x, lv.curR, g)
		case mgJacobiRed:
			m.jacobiLine(b, x, g, red)
		case mgRed:
			m.gsLine(b, x, g, red)
		case mgBlack:
			m.gsLine(b, x, g, black)
		case mgProlong:
			lv.prolongLine(x, lv.curCX, g)
		}
	}
}

// restrictLines computes the coarse right-hand side cb = Pᵀ(b - A*x) on the
// coarse lines [lo, hi): each coarse node is zeroed and then sums the
// residuals of its fine aggregate in fine-index order, exactly as Restrict
// would from a stored residual vector. A coarse line's two fine lines
// belong to the same worker, so the sums are the same for any split. t is
// a scratch line for the fine residual.
func (lv *mgLevel) restrictLines(b, x, cb, t []float64, lo, hi int) {
	m, c := lv.m, lv.coarse
	cg := c.lineAt(lo)
	for cl := lo; cl < hi; cl, cg = cl+1, c.next(cg) {
		row := cb[cg.i0 : cg.i0+c.NX]
		clear(row)
		for iy := 2 * cg.iy; iy < min(2*cg.iy+2, m.NY); iy++ {
			g := gridLine{cg.l, iy, (cg.l*m.NY + iy) * m.NX}
			m.axLine(x, t, g)
			for ix, v := range b[g.i0 : g.i0+m.NX] {
				row[ix/2] += v - t[ix]
			}
		}
	}
}

// prolongLine adds the coarse correction onto the red nodes of fine line g.
// The black nodes are left alone: the black half-sweep that follows
// overwrites them without reading them.
func (lv *mgLevel) prolongLine(x, cx []float64, g gridLine) {
	m, c := lv.m, lv.coarse
	xl := x[g.i0 : g.i0+m.NX]
	cl := cx[(g.l*c.NY+g.iy/2)*c.NX:]
	for ix := (g.l + g.iy) & 1; ix < len(xl); ix += 2 {
		xl[ix] += cl[ix/2]
	}
}

// Aggregate returns the piecewise-constant aggregation map from a fine
// nx-by-ny-by-nl grid onto a coarse cnx-by-cny grid with the same nl layers:
// out[i] is the coarse node of fine node i, both in the (l*ny+iy)*nx + ix
// layout of Stencil7. Fine cell ix lands in coarse cell ix*cnx/nx (the
// proportional map), which for cnx = ceil(nx/2) is ix/2, the aggregate of
// the MG hierarchy — so the thermal solver's CoarseFactor power-map
// restriction and the hierarchy's own coarse levels agree on which fine
// cells pool together.
func Aggregate(nx, ny, nl, cnx, cny int) []int32 {
	parent := make([]int32, nx*ny*nl)
	for l := 0; l < nl; l++ {
		for iy := 0; iy < ny; iy++ {
			ciy := iy * cny / ny
			for ix := 0; ix < nx; ix++ {
				parent[(l*ny+iy)*nx+ix] = int32((l*cny+ciy)*cnx + ix*cnx/nx)
			}
		}
	}
	return parent
}

// Restrict applies the transpose of piecewise-constant interpolation: coarse
// is zeroed and every fine entry is summed into its aggregate, in fine-index
// order (float addition order is fixed, so the result is reproducible). MG's
// cycle restricts its residuals the same way; callers use it to downsample
// grid-shaped data (power maps) with the same operator.
func Restrict(fine []float64, parent []int32, coarse []float64) {
	for i := range coarse {
		coarse[i] = 0
	}
	for i, p := range parent {
		coarse[p] += fine[i]
	}
}

// galerkin sets c = PᵀfP for the 2x2 aggregation of f onto c. Every coarse
// entry is a sum in a fixed order: a coarse diagonal takes the fine
// diagonals of its aggregate in fine-index order and then the links
// internal to the aggregate row by row, each row's in stencil order; a
// coarse link takes the fine links crossing it in fine-index order. A
// crossing link is gathered from the row whose lower link it is, which is
// the order the upper side's links arrive in too, so the coarse matrix the
// links describe is exactly PᵀfP.
func galerkin(f, c *Stencil7) {
	clear(c.Diag)
	clear(c.Z)
	clear(c.Y)
	clear(c.X)
	nx, ny := f.NX, f.NY
	parent := func(l, iy, ix int) int { return (l*c.NY+iy/2)*c.NX + ix/2 }
	i := 0
	for l := 0; l < f.NL; l++ {
		for iy := 0; iy < ny; iy++ {
			for ix := 0; ix < nx; ix++ {
				c.Diag[parent(l, iy, ix)] += f.Diag[i]
				i++
			}
		}
	}
	i = 0
	for l := 0; l < f.NL; l++ {
		for iy := 0; iy < ny; iy++ {
			for ix := 0; ix < nx; ix++ {
				p := parent(l, iy, ix)
				if l > 0 {
					c.Z[p] += f.Z[i] // layers are never merged
				}
				if iy > 0 {
					if iy&1 == 1 {
						c.Diag[p] += f.Y[i]
					} else {
						c.Y[p] += f.Y[i]
					}
				}
				if ix > 0 {
					if ix&1 == 1 {
						c.Diag[p] += f.X[i]
					} else {
						c.X[p] += f.X[i]
					}
				}
				if ix+1 < nx && ix&1 == 0 {
					c.Diag[p] += f.X[i+1]
				}
				if iy+1 < ny && iy&1 == 0 {
					c.Diag[p] += f.Y[i+nx]
				}
				i++
			}
		}
	}
}

// Refresh rebuilds the coarse-level operators from the current fine-matrix
// values (Galerkin products level by level) and refactorizes the coarsest
// level. Call it after every in-place change to the fine matrix values.
func (g *MG) Refresh() error {
	last := len(g.levels) - 1
	for _, lv := range g.levels[:last] {
		galerkin(lv.m, lv.coarse)
	}
	if err := g.levels[last].factorize(); err != nil {
		return &fault.ErrSetup{Stage: "factorize", Err: err}
	}
	return nil
}

// factorize computes the dense Cholesky factor of the coarsest operator.
// The factorization reads only the lower triangle, so only that is filled.
func (lv *mgLevel) factorize() error {
	m := lv.m
	n, nx, nxy := m.N(), m.NX, m.NX*m.NY
	a := lv.chol
	clear(a)
	for i := 0; i < n; i++ {
		a[i*n+i] = m.Diag[i]
		if i >= nxy {
			a[i*n+i-nxy] = m.Z[i]
		}
		if (i/nx)%m.NY > 0 {
			a[i*n+i-nx] = m.Y[i]
		}
		if i%nx > 0 {
			a[i*n+i-1] = m.X[i]
		}
	}
	// In-place lower Cholesky.
	for j := 0; j < n; j++ {
		d := a[j*n+j]
		for k := 0; k < j; k++ {
			d -= a[j*n+k] * a[j*n+k]
		}
		if d <= 0 {
			return fmt.Errorf("sparse: MG coarsest level not positive definite (pivot %d: %g)", j, d)
		}
		d = math.Sqrt(d)
		a[j*n+j] = d
		for i := j + 1; i < n; i++ {
			s := a[i*n+j]
			for k := 0; k < j; k++ {
				s -= a[i*n+k] * a[j*n+k]
			}
			a[i*n+j] = s / d
		}
	}
	return nil
}

// solveDirect solves the coarsest system by forward/back substitution.
func (lv *mgLevel) solveDirect(b, x []float64) {
	n := lv.m.N()
	a := lv.chol
	// L y = b
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= a[i*n+k] * x[k]
		}
		x[i] = s / a[i*n+i]
	}
	// Lᵀ x = y
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= a[k*n+i] * x[k]
		}
		x[i] = s / a[i*n+i]
	}
}

// Apply runs one W-cycle on r: z = B·r with B the fixed SPD multigrid
// operator. r is left untouched. It delegates to ApplyCtx with a background
// context, whose nil-Done fast path is exactly the uninstrumented cycle.
func (g *MG) Apply(r, z []float64) {
	_ = g.ApplyCtx(context.Background(), r, z)
}

// ApplyCtx is Apply with cancellation: the context is checked at every level
// entry of the (recursive) cycle, so an abort lands within one smoothing
// sweep of the context firing even on the largest grids. On cancellation it
// returns an error matching fault.ErrCanceled and leaves z unspecified; the
// enclosing CG iteration discards it and aborts. With a context that never
// fires, ApplyCtx is exactly Apply.
func (g *MG) ApplyCtx(ctx context.Context, r, z []float64) error {
	if ctx.Done() == nil {
		g.cycle(0, r, z)
		return nil
	}
	g.ctx, g.ctxErr = ctx, nil
	g.cycle(0, r, z)
	err := g.ctxErr
	g.ctx, g.ctxErr = nil, nil
	return err
}

// Levels returns the depth of the hierarchy (1 = direct solve only).
func (g *MG) Levels() int { return len(g.levels) }

// cycle runs the W-cycle at one level: x = (approximate A⁻¹)·b with a zero
// initial iterate.
func (g *MG) cycle(l int, b, x []float64) {
	if g.ctx != nil {
		if g.ctxErr != nil {
			return // already aborted: unwind without more work
		}
		if cerr := g.ctx.Err(); cerr != nil {
			g.ctxErr = fault.Canceled(cerr)
			return
		}
	}
	lv := g.levels[l]
	if lv.chol != nil {
		lv.solveDirect(b, x)
		return
	}
	// The cycle starts from a zero iterate, so the first red half-sweep
	// collapses to x = b/diag; it writes every red node and the black
	// half-sweep only reads red neighbours (the stencil is bipartite), so
	// no explicit zeroing of x is needed.
	lv.run(mgJacobiRed, b, x, nil, nil)
	lv.run(mgBlack, b, x, nil, nil)
	next := g.levels[l+1]
	lv.run(mgRestrict, b, x, next.b, nil)
	g.cycle(l+1, next.b, next.x)
	if next.chol == nil {
		// W-cycle: a second correction against the coarse residual. The
		// compound step v + M(b - Av) is still a fixed symmetric
		// positive-definite operator (error propagation (I-MA)²), so CG
		// stays valid.
		next.run(mgResidual, next.b, next.x, next.r2, nil)
		g.cycle(l+1, next.r2, next.x2)
		for i, v := range next.x2 {
			next.x[i] += v
		}
	}
	lv.run(mgProlong, nil, x, nil, next.x)
	lv.run(mgBlack, b, x, nil, nil)
	lv.run(mgRed, b, x, nil, nil)
}
