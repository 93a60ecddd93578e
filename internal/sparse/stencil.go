// Package sparse provides the numerical kernel of the structured-grid
// thermal fast path: a symmetric 7-point stencil matrix on an
// nx-by-ny-by-nl grid, a preconditioned conjugate-gradient solver whose
// matrix-vector products and reductions run on a persistent goroutine pool,
// and a geometric multigrid preconditioner (MG) on the same stencil.
//
// The pool only pays off on systems larger than the L2 cache: measured on
// the thermal grids, two workers first beat one between 57,600 unknowns
// (80x80x9, a tie) and 112,896 (112x112x9, 12% faster), so AutoWorkers
// keeps smaller systems serial. Every CG reduction is summed per grid line
// and the line sums are added in line order, so a solve gives the same bits
// for any worker count.
//
// Unlike package spice, which assembles nodal equations from a netlist of
// named elements, this package works on plain integer-indexed vectors: the
// caller (package thermal) maps grid cells to contiguous indices once and
// never touches strings or maps on the solve path. The matrix has one
// shape only, so it is stored without any index structure — a diagonal and
// one coefficient per lower grid link — and every kernel walks grid lines
// (the nx nodes of one (l, iy) pair) directly. All numeric buffers and the
// worker pool are reusable across solves, so a re-solve with a new
// right-hand side allocates nothing and spawns no goroutines.
package sparse

import "fmt"

// Stencil7 is a symmetric positive-definite matrix with the sparsity of the
// 7-point stencil on an NX-by-NY-by-NL structured grid, where node
// (l, ix, iy) has index (l*NY+iy)*NX + ix. Row i couples to its grid
// neighbours in the order z-1, y-1, x-1, x+1, y+1, z+1; every kernel sums
// the terms of a row in that order.
//
// Only the lower links are stored: Z[i], Y[i] and X[i] are the entries
// (i, i-NX*NY), (i, i-NX) and (i, i-1), and are 0 where node i has no such
// neighbour. The upper entry (i, j) for j > i is the neighbour's lower entry
// back to i, so the matrix is symmetric by construction.
type Stencil7 struct {
	NX, NY, NL int
	Diag       []float64
	Z, Y, X    []float64
}

// NewStencil7 allocates the nx-by-ny-by-nl stencil with all values zero.
func NewStencil7(nx, ny, nl int) *Stencil7 {
	n := nx * ny * nl
	return &Stencil7{
		NX: nx, NY: ny, NL: nl,
		Diag: make([]float64, n),
		Z:    make([]float64, n),
		Y:    make([]float64, n),
		X:    make([]float64, n),
	}
}

// N returns the number of rows (= columns).
func (m *Stencil7) N() int { return len(m.Diag) }

// check reports a stencil whose arrays do not match its grid dimensions.
func (m *Stencil7) check() error {
	n := m.NX * m.NY * m.NL
	if m.NX < 1 || m.NY < 1 || m.NL < 1 || len(m.Diag) != n || len(m.Z) != n || len(m.Y) != n || len(m.X) != n {
		return fmt.Errorf("sparse: stencil arrays %d/%d/%d/%d do not match a %dx%dx%d grid",
			len(m.Diag), len(m.Z), len(m.Y), len(m.X), m.NX, m.NY, m.NL)
	}
	return nil
}

// MatVec computes y = A*x.
func (m *Stencil7) MatVec(x, y []float64) {
	for ln, g := 0, m.lineAt(0); ln < m.NY*m.NL; ln, g = ln+1, m.next(g) {
		m.axLine(x, y[g.i0:g.i0+m.NX], g)
	}
}

// A gridLine is grid line (l, iy): the NX nodes from index i0 = (l*NY+iy)*NX
// on. Kernels work line by line and step from one line to the next, so no
// node index is ever divided back into coordinates.
type gridLine struct{ l, iy, i0 int }

// lineAt returns grid line ln = l*NY + iy.
func (m *Stencil7) lineAt(ln int) gridLine { return gridLine{ln / m.NY, ln % m.NY, ln * m.NX} }

// next returns the grid line after g in index order.
func (m *Stencil7) next(g gridLine) gridLine {
	g.i0 += m.NX
	if g.iy++; g.iy == m.NY {
		g.l, g.iy = g.l+1, 0
	}
	return g
}

// offsets returns the index offsets from a node of line g to the same
// column of its z-1, y-1, y+1 and z+1 neighbour lines, each 0 where g has
// no such neighbour.
func (m *Stencil7) offsets(g gridLine) (zm, ym, yp, zp int) {
	if g.l > 0 {
		zm = -m.NX * m.NY
	}
	if g.iy > 0 {
		ym = -m.NX
	}
	if g.iy+1 < m.NY {
		yp = m.NX
	}
	if g.l+1 < m.NL {
		zp = m.NX * m.NY
	}
	return zm, ym, yp, zp
}

// axLine sets y[ix] = (A*x)[i] for the nodes i = g.i0 + ix of line g. Each
// row sums the diagonal term first and then its neighbours in stencil
// order. The end nodes 0 and NX-1, which lack an x neighbour, go through
// axNode; the rest run in a loop over slices of equal length, which needs
// no x checks and no bounds checks.
func (m *Stencil7) axLine(x, y []float64, g gridLine) {
	nx := m.NX
	y[0] = m.axNode(x, g, 0)
	if nx == 1 {
		return
	}
	y[nx-1] = m.axNode(x, g, nx-1)
	if nx == 2 {
		return
	}
	o, n := g.i0+1, nx-2
	dzm, dym, dyp, dzp := m.offsets(g)
	y = y[1 : 1+n]
	d, lw, le := m.Diag[o:o+n], m.X[o:o+n], m.X[o+1:o+1+n]
	zc, yc, yu, zu := m.Z[o:o+n], m.Y[o:o+n], m.Y[o+dyp:][:n], m.Z[o+dzp:][:n]
	xc, xw, xe := x[o:o+n], x[o-1:o-1+n], x[o+1:o+1+n]
	xzm, xym, xyp, xzp := x[o+dzm:][:n], x[o+dym:][:n], x[o+dyp:][:n], x[o+dzp:][:n]
	for j := range y {
		s := d[j] * xc[j]
		if dzm != 0 {
			s += zc[j] * xzm[j]
		}
		if dym != 0 {
			s += yc[j] * xym[j]
		}
		s += lw[j] * xw[j]
		s += le[j] * xe[j]
		if dyp != 0 {
			s += yu[j] * xyp[j]
		}
		if dzp != 0 {
			s += zu[j] * xzp[j]
		}
		y[j] = s
	}
}

// axNode returns (A*x)[i] for the node at column ix of line g, in the term
// order of axLine.
func (m *Stencil7) axNode(x []float64, g gridLine, ix int) float64 {
	zm, ym, yp, zp := m.offsets(g)
	i := g.i0 + ix
	s := m.Diag[i] * x[i]
	if zm != 0 {
		s += m.Z[i] * x[i+zm]
	}
	if ym != 0 {
		s += m.Y[i] * x[i+ym]
	}
	if ix > 0 {
		s += m.X[i] * x[i-1]
	}
	if ix+1 < m.NX {
		s += m.X[i+1] * x[i+1]
	}
	if yp != 0 {
		s += m.Y[i+yp] * x[i+yp]
	}
	if zp != 0 {
		s += m.Z[i+zp] * x[i+zp]
	}
	return s
}

// matVecDotLine sets ap = A*p on the nodes of line g and returns their
// p·ap, accumulated in node order.
func (m *Stencil7) matVecDotLine(p, ap []float64, g gridLine) float64 {
	lo, hi := g.i0, g.i0+m.NX
	m.axLine(p, ap[lo:hi], g)
	s := 0.0
	for i := lo; i < hi; i++ {
		s += p[i] * ap[i]
	}
	return s
}

// residualLine sets r = b - A*x on the nodes of line g and returns their
// r·r, accumulated in node order.
func (m *Stencil7) residualLine(b, x, r []float64, g gridLine) float64 {
	lo, hi := g.i0, g.i0+m.NX
	m.axLine(x, r[lo:hi], g)
	s := 0.0
	for i := lo; i < hi; i++ {
		r[i] = b[i] - r[i]
		s += r[i] * r[i]
	}
	return s
}

// gsLine runs the Gauss-Seidel update x[i] = (b[i] - sum_j A_ij x[j]) / D[i]
// on the nodes of line g whose colour (ix+iy+l)&1 is color, the neighbours
// in stencil order. Nodes of one colour only read the other colour, so the
// lines of a half-sweep may run in any order or in parallel with the same
// result. Like axLine it peels the end nodes, into gsNode.
func (m *Stencil7) gsLine(b, x []float64, g gridLine, color int) {
	nx := m.NX
	first := (color + g.l + g.iy) & 1
	if first == 0 {
		m.gsNode(b, x, g, 0)
	}
	if (nx-1)&1 == first && nx > 1 {
		m.gsNode(b, x, g, nx-1)
	}
	// The interior nodes of the colour: columns 2-first, 4-first, ...
	// below nx-1.
	o, n := g.i0+2-first, nx-3+first
	if n <= 0 {
		return
	}
	dzm, dym, dyp, dzp := m.offsets(g)
	bl, d, lw, le := b[o:o+n], m.Diag[o:o+n], m.X[o:o+n], m.X[o+1:o+1+n]
	zc, yc, yu, zu := m.Z[o:o+n], m.Y[o:o+n], m.Y[o+dyp:][:n], m.Z[o+dzp:][:n]
	xc, xw, xe := x[o:o+n], x[o-1:o-1+n], x[o+1:o+1+n]
	xzm, xym, xyp, xzp := x[o+dzm:][:n], x[o+dym:][:n], x[o+dyp:][:n], x[o+dzp:][:n]
	for j := 0; j < n; j += 2 {
		s := bl[j]
		if dzm != 0 {
			s -= zc[j] * xzm[j]
		}
		if dym != 0 {
			s -= yc[j] * xym[j]
		}
		s -= lw[j] * xw[j]
		s -= le[j] * xe[j]
		if dyp != 0 {
			s -= yu[j] * xyp[j]
		}
		if dzp != 0 {
			s -= zu[j] * xzp[j]
		}
		xc[j] = s / d[j]
	}
}

// gsNode runs the Gauss-Seidel update of gsLine on the node at column ix of
// line g.
func (m *Stencil7) gsNode(b, x []float64, g gridLine, ix int) {
	zm, ym, yp, zp := m.offsets(g)
	i := g.i0 + ix
	s := b[i]
	if zm != 0 {
		s -= m.Z[i] * x[i+zm]
	}
	if ym != 0 {
		s -= m.Y[i] * x[i+ym]
	}
	if ix > 0 {
		s -= m.X[i] * x[i-1]
	}
	if ix+1 < m.NX {
		s -= m.X[i+1] * x[i+1]
	}
	if yp != 0 {
		s -= m.Y[i+yp] * x[i+yp]
	}
	if zp != 0 {
		s -= m.Z[i+zp] * x[i+zp]
	}
	x[i] = s / m.Diag[i]
}

// jacobiLine sets x[i] = b[i] / D[i] on the nodes of line g of the given
// colour: the first Gauss-Seidel half-sweep from a zero iterate.
func (m *Stencil7) jacobiLine(b, x []float64, g gridLine, color int) {
	xl, bl, d := x[g.i0:g.i0+m.NX], b[g.i0:g.i0+m.NX], m.Diag[g.i0:g.i0+m.NX]
	for ix := (color + g.l + g.iy) & 1; ix < len(xl); ix += 2 {
		xl[ix] = bl[ix] / d[ix]
	}
}
