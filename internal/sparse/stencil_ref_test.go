package sparse

import (
	"fmt"
	"math/rand"
	"testing"
)

// csrRef is a symmetric matrix in general compressed-sparse-row form, the
// format the stencil kernels replaced, kept here as their oracle. Its
// kernels are plain row loops over the stored entries, so a stencil kernel
// that is bitwise == to them sums every row's terms in the same order.
type csrRef struct {
	rowPtr []int32
	col    []int32
	val    []float64
	diag   []float64
}

// csrOf expands a stencil into CSR with each row's columns in stencil order
// (z-1, y-1, x-1, x+1, y+1, z+1); an upper entry is the neighbour's lower
// link.
func csrOf(m *Stencil7) *csrRef {
	c := &csrRef{diag: append([]float64(nil), m.Diag...)}
	nx, ny, nl, nxy := m.NX, m.NY, m.NL, m.NX*m.NY
	add := func(j int, v float64) {
		c.col = append(c.col, int32(j))
		c.val = append(c.val, v)
	}
	for l := 0; l < nl; l++ {
		for iy := 0; iy < ny; iy++ {
			for ix := 0; ix < nx; ix++ {
				i := (l*ny+iy)*nx + ix
				c.rowPtr = append(c.rowPtr, int32(len(c.col)))
				if l > 0 {
					add(i-nxy, m.Z[i])
				}
				if iy > 0 {
					add(i-nx, m.Y[i])
				}
				if ix > 0 {
					add(i-1, m.X[i])
				}
				if ix+1 < nx {
					add(i+1, m.X[i+1])
				}
				if iy+1 < ny {
					add(i+nx, m.Y[i+nx])
				}
				if l+1 < nl {
					add(i+nxy, m.Z[i+nxy])
				}
			}
		}
	}
	c.rowPtr = append(c.rowPtr, int32(len(c.col)))
	return c
}

func (c *csrRef) rowSum(x []float64, i int) float64 {
	s := c.diag[i] * x[i]
	for k := c.rowPtr[i]; k < c.rowPtr[i+1]; k++ {
		s += c.val[k] * x[c.col[k]]
	}
	return s
}

// residual sets r = b - A*x on rows [lo, hi) and returns r·r over them.
func (c *csrRef) residual(b, x, r []float64, lo, hi int) float64 {
	s := 0.0
	for i := lo; i < hi; i++ {
		r[i] = b[i] - c.rowSum(x, i)
		s += r[i] * r[i]
	}
	return s
}

func (c *csrRef) gsRows(b, x []float64, rows []int32) {
	for _, i := range rows {
		s := b[i]
		for k := c.rowPtr[i]; k < c.rowPtr[i+1]; k++ {
			s -= c.val[k] * x[c.col[k]]
		}
		x[i] = s / c.diag[i]
	}
}

// at returns entry (i, j) of an off-diagonal, and whether it is stored.
func (c *csrRef) at(i, j int) (float64, bool) {
	for k := c.rowPtr[i]; k < c.rowPtr[i+1]; k++ {
		if int(c.col[k]) == j {
			return c.val[k], true
		}
	}
	return 0, false
}

// colourRows lists the rows of one red-black colour in index order.
func colourRows(nx, ny, nl, color int) []int32 {
	var rows []int32
	for l := 0; l < nl; l++ {
		for iy := 0; iy < ny; iy++ {
			for ix := 0; ix < nx; ix++ {
				if (ix+iy+l)%2 == color {
					rows = append(rows, int32((l*ny+iy)*nx+ix))
				}
			}
		}
	}
	return rows
}

// galerkinRef is the CSR Galerkin product in the accumulation order of the
// CSR multigrid: fine diagonals in index order, then every fine
// off-diagonal in row/pattern order, scattered to the coarse entry found by
// column search, or onto the coarse diagonal when it is internal to an
// aggregate.
func galerkinRef(f *csrRef, nx, ny, nl int) *csrRef {
	cnx, cny := (nx+1)/2, (ny+1)/2
	c := csrOf(NewStencil7(cnx, cny, nl))
	parent := Aggregate(nx, ny, nl, cnx, cny)
	for i, p := range parent {
		c.diag[p] += f.diag[i]
	}
	for i, pi := range parent {
		for k := f.rowPtr[i]; k < f.rowPtr[i+1]; k++ {
			pj := parent[f.col[k]]
			if pi == pj {
				c.diag[pi] += f.val[k]
				continue
			}
			found := false
			for ck := c.rowPtr[pi]; ck < c.rowPtr[pi+1]; ck++ {
				if c.col[ck] == pj {
					c.val[ck] += f.val[k]
					found = true
					break
				}
			}
			if !found {
				panic(fmt.Sprintf("coarse entry (%d,%d) missing", pi, pj))
			}
		}
	}
	return c
}

// randomSPD fills m with random links in [-1.5, -0.5) and a diagonal that
// dominates them, so every level of its hierarchy stays positive definite.
func randomSPD(m *Stencil7, rng *rand.Rand) {
	eachLink(m, func(_, _, _ int, v *float64) { *v = -0.5 - rng.Float64() })
	for i := range m.Diag {
		m.Diag[i] = 0.01 + 0.1*rng.Float64()
	}
	eachLink(m, func(i, j, _ int, v *float64) {
		m.Diag[i] -= *v
		m.Diag[j] -= *v
	})
}

func randomVec(n int, rng *rand.Rand) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64() - 0.5
	}
	return v
}

// awkwardGrids are the oracle grids: single-node, single-column, single-row
// and single-layer grids, odd dimensions, and the thermal solver's grid.
var awkwardGrids = [][3]int{{1, 1, 1}, {1, 6, 3}, {6, 1, 3}, {6, 5, 1}, {5, 3, 2}, {7, 1, 3}, {40, 40, 9}}

// sameBits fails the test at the first element where got and want differ.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d is %v, reference %v", what, i, got[i], want[i])
		}
	}
}

// refReduce sums f over the grid lines of nx rows the way CG.run does for
// any worker count: one partial per line, the partials added in line order.
func refReduce(nx, n int, f func(lo, hi int) float64) float64 {
	s := 0.0
	for lo := 0; lo < n; lo += nx {
		s += f(lo, lo+nx)
	}
	return s
}

// TestStencilKernelsMatchCSR checks every stencil kernel bitwise against
// the CSR oracle: the CG's mat-vec with p·Ap and residual with r·r at 1 and
// 2 workers, and the multigrid level kernels (both Gauss-Seidel half-sweeps,
// the zero-iterate red sweep, the fused residual restriction and the
// red-node prolongation) serially and split by lines over 2 pool workers.
func TestStencilKernelsMatchCSR(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	for _, d := range awkwardGrids {
		nx, ny, nl := d[0], d[1], d[2]
		rng := rand.New(rand.NewSource(int64(nx*100 + ny*10 + nl)))
		m := NewStencil7(nx, ny, nl)
		randomSPD(m, rng)
		ref := csrOf(m)
		n := m.N()
		for _, workers := range []int{1, 2} {
			name := fmt.Sprintf("%dx%dx%d/w%d", nx, ny, nl, workers)

			cg := NewCG(m, CGOptions{Workers: workers})
			p, b, x := randomVec(n, rng), randomVec(n, rng), randomVec(n, rng)
			copy(cg.p, p)
			pap := cg.run(opMatVecDot)
			wantAp := make([]float64, n)
			wantPAp := refReduce(nx, n, func(lo, hi int) float64 {
				s := 0.0
				for i := lo; i < hi; i++ {
					wantAp[i] = ref.rowSum(p, i)
					s += p[i] * wantAp[i]
				}
				return s
			})
			sameBits(t, name+" mat-vec", cg.ap, wantAp)
			sameBits(t, name+" p·Ap", []float64{pap}, []float64{wantPAp})

			cg.b, cg.x = b, x
			rr := cg.run(opResidual)
			wantR := make([]float64, n)
			wantRR := refReduce(nx, n, func(lo, hi int) float64 { return ref.residual(b, x, wantR, lo, hi) })
			sameBits(t, name+" residual", cg.r, wantR)
			sameBits(t, name+" r·r", []float64{rr}, []float64{wantRR})
			cg.Close()

			lv := &mgLevel{m: m, coarse: NewStencil7((nx+1)/2, (ny+1)/2, nl)}
			lv.setWorkers(min(workers, ny*nl, lv.coarse.NY*nl), pool)
			redRows, blackRows := colourRows(nx, ny, nl, red), colourRows(nx, ny, nl, black)

			got, want := append([]float64(nil), x...), append([]float64(nil), x...)
			lv.run(mgJacobiRed, b, got, nil, nil)
			for _, i := range redRows {
				want[i] = b[i] / m.Diag[i]
			}
			sameBits(t, name+" zero-iterate red sweep", got, want)
			for _, c := range []struct {
				op   int
				rows []int32
			}{{mgRed, redRows}, {mgBlack, blackRows}} {
				lv.run(c.op, b, got, nil, nil)
				ref.gsRows(b, want, c.rows)
				sameBits(t, fmt.Sprintf("%s half-sweep %d", name, c.op), got, want)
			}

			cn := lv.coarse.N()
			parent := Aggregate(nx, ny, nl, lv.coarse.NX, lv.coarse.NY)
			cb, wantCB := randomVec(cn, rng), make([]float64, cn)
			lv.run(mgRestrict, b, x, cb, nil)
			r := make([]float64, n)
			ref.residual(b, x, r, 0, n)
			Restrict(r, parent, wantCB)
			sameBits(t, name+" residual restriction", cb, wantCB)

			cx := randomVec(cn, rng)
			got, want = append([]float64(nil), x...), append([]float64(nil), x...)
			lv.run(mgProlong, nil, got, nil, cx)
			for _, i := range redRows {
				want[i] += cx[parent[i]]
			}
			sameBits(t, name+" red prolongation", got, want)
		}
	}
}

// TestGalerkinMatchesCSR builds the deepest hierarchy of every oracle grid
// and checks each coarse level after Refresh against the CSR Galerkin
// product of the level above it: the diagonal and every stored entry, lower
// and upper, bitwise. The CSR product accumulates both triangles
// independently, so this also asserts that every level's links are bitwise
// symmetric — what lets the stencil store only the lower ones.
func TestGalerkinMatchesCSR(t *testing.T) {
	for _, d := range awkwardGrids {
		nx, ny, nl := d[0], d[1], d[2]
		rng := rand.New(rand.NewSource(int64(nx*100 + ny*10 + nl)))
		m := NewStencil7(nx, ny, nl)
		randomSPD(m, rng)
		mg := refreshedMG(t, m, MGOptions{CoarsestN: 1})
		ref := csrOf(m)
		for l := 1; l < mg.Levels(); l++ {
			f, c := mg.levels[l-1].m, mg.levels[l].m
			ref = galerkinRef(ref, f.NX, f.NY, f.NL)
			name := fmt.Sprintf("%dx%dx%d level %d", nx, ny, nl, l)
			sameBits(t, name+" diagonal", c.Diag, ref.diag)
			got := csrOf(c)
			for i := range c.Diag {
				for k := ref.rowPtr[i]; k < ref.rowPtr[i+1]; k++ {
					j := int(ref.col[k])
					g, _ := got.at(i, j)
					back, ok := ref.at(j, i)
					if g != ref.val[k] || !ok || back != ref.val[k] {
						t.Fatalf("%s: entry (%d,%d) is %v, CSR %v, CSR (%d,%d) %v", name, i, j, g, ref.val[k], j, i, back)
					}
				}
			}
		}
	}
}

// TestMGCycleMatchesCSR runs the multigrid cycle against a CSR reference
// cycle — stored residuals, Restrict through the aggregation map, a full
// prolongation and row-list sweeps — on every oracle grid with the deepest
// hierarchy, serially and with every level split over 2 pool workers.
func TestMGCycleMatchesCSR(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	for _, d := range awkwardGrids {
		nx, ny, nl := d[0], d[1], d[2]
		rng := rand.New(rand.NewSource(int64(nx*100 + ny*10 + nl)))
		m := NewStencil7(nx, ny, nl)
		randomSPD(m, rng)
		r := randomVec(m.N(), rng)
		for _, workers := range []int{1, 2} {
			mg := refreshedMG(t, m, MGOptions{CoarsestN: 1})
			refs := []*csrRef{csrOf(m)}
			for _, lv := range mg.levels[:len(mg.levels)-1] {
				lv.setWorkers(min(workers, lv.m.NY*nl, lv.coarse.NY*nl), pool)
				refs = append(refs, galerkinRef(refs[len(refs)-1], lv.m.NX, lv.m.NY, nl))
			}
			z, want := make([]float64, m.N()), make([]float64, m.N())
			mg.Apply(r, z)
			refCycle(mg, refs, 0, r, want)
			sameBits(t, fmt.Sprintf("%dx%dx%d/w%d cycle", nx, ny, nl, workers), z, want)
		}
	}
}

// refCycle is the W-cycle on the CSR reference levels; the coarsest solve
// reuses the hierarchy's factorization, whose operator
// TestGalerkinMatchesCSR pins.
func refCycle(g *MG, refs []*csrRef, l int, b, x []float64) {
	last := len(refs) - 1
	if l == last {
		g.levels[l].solveDirect(b, x)
		return
	}
	m, a := g.levels[l].m, refs[l]
	n := m.N()
	for _, i := range colourRows(m.NX, m.NY, m.NL, red) {
		x[i] = b[i] / a.diag[i]
	}
	a.gsRows(b, x, colourRows(m.NX, m.NY, m.NL, black))
	r := make([]float64, n)
	a.residual(b, x, r, 0, n)
	c := g.levels[l+1].m
	parent := Aggregate(m.NX, m.NY, m.NL, c.NX, c.NY)
	cb, cx := make([]float64, c.N()), make([]float64, c.N())
	Restrict(r, parent, cb)
	refCycle(g, refs, l+1, cb, cx)
	if l+1 < last {
		r2, x2 := make([]float64, c.N()), make([]float64, c.N())
		refs[l+1].residual(cb, cx, r2, 0, c.N())
		refCycle(g, refs, l+1, r2, x2)
		for i, v := range x2 {
			cx[i] += v
		}
	}
	for i, p := range parent {
		x[i] += cx[p]
	}
	a.gsRows(b, x, colourRows(m.NX, m.NY, m.NL, black))
	a.gsRows(b, x, colourRows(m.NX, m.NY, m.NL, red))
}
