package loopir

import (
	"fmt"
	"math"
	"strconv"
)

// Program library: the routines the paper uses as running examples (Table 1:
// matrix multiplication, successive overrelaxation, LU decomposition), plus
// additional loop nests used by the extended test suite and examples.
//
// Initial values are produced by a deterministic hash so that runs are
// reproducible and parallel executions can be verified element-for-element
// against the sequential interpreter.

// hashInit yields a deterministic pseudo-random value in [0,1) from an
// index vector and a per-array salt.
func hashInit(salt uint64, idx []int) float64 {
	h := uint64(2166136261) ^ salt*0x9E3779B97F4A7C15
	for _, i := range idx {
		h ^= uint64(i + 1)
		h *= 1099511628211
	}
	return float64(h%100000) / 100000
}

// Initializer resolves an `init name(arg)` clause of the source language:
// the one table of array initializers, read by the parser and by the
// library below. spec is the clause's canonical text, which lang.Format
// prints back ("" for zero — no clause); ok is false for an unknown name.
func Initializer(name string, arg float64) (fn InitFn, spec string, ok bool) {
	salt := uint64(arg)
	switch name {
	case "zero":
		return nil, "", true
	case "hash":
		fn = func(idx []int) float64 { return hashInit(salt, idx) }
	case "diagdom":
		// Hashed values with arg added on the diagonal (first two indices
		// equal): LU without pivoting needs diagonal dominance.
		fn = func(idx []int) float64 {
			v := hashInit(4, idx)
			if len(idx) >= 2 && idx[0] == idx[1] {
				return v + arg
			}
			return v
		}
	case "powrows":
		// Block-correlated power-law row lengths in [0,64): floor(64·h⁴)
		// of a hash of the 32-row block index. The fourth power skews the
		// distribution (most rows short, a few blocks long), and hashing
		// the block index rather than the row makes the skew spatially
		// correlated, so contiguous ownership ranges really do differ in
		// weight.
		fn = func(idx []int) float64 {
			h := hashInit(salt, []int{idx[0] / 32})
			v := h * h
			v *= v
			return math.Floor(64 * v)
		}
	case "band":
		// Integer band offsets in [-32,32): floor(64·h) − 32.
		fn = func(idx []int) float64 {
			return math.Floor(64*hashInit(salt, idx)) - 32
		}
	default:
		return nil, "", false
	}
	return fn, fmt.Sprintf("%s(%s)", name, strconv.FormatFloat(arg, 'g', -1, 64)), true
}

// initArray declares a library array filled by the named initializer.
func initArray(name, init string, arg float64, dims ...IExpr) *ArrayDecl {
	fn, spec, _ := Initializer(init, arg)
	return &ArrayDecl{Name: name, Dims: dims, Init: fn, InitSpec: spec}
}

// MatMul builds C = A·B over n×n matrices:
//
//	for i: for j: for k: c[i][j] = c[i][j] + a[i][k]*b[k][j]
//
// Table 1 row "MM": no loop-carried dependences on the distributed loop (i),
// no communication outside the loop, repeated execution (the j/k nest re-
// runs per i — here the distributed loop is the outermost, executed once).
func MatMul() *Program {
	n := Iv("n")
	return &Program{
		Name:   "mm",
		Params: []string{"n"},
		Arrays: []*ArrayDecl{
			initArray("a", "hash", 1, n, n),
			initArray("b", "hash", 2, n, n),
			{Name: "c", Dims: []IExpr{n, n}}, // zero
		},
		Body: []Stmt{
			For("i", Ic(0), n,
				For("j", Ic(0), n,
					For("k", Ic(0), n,
						Set(Fref("c", Iv("i"), Iv("j")),
							Fadd(Fref("c", Iv("i"), Iv("j")),
								Fmul(Fref("a", Iv("i"), Iv("k")), Fref("b", Iv("k"), Iv("j")))))))),
		},
	}
}

// SOR builds the paper's successive overrelaxation kernel (Figure 3a):
//
//	for iter: for i (rows): for j (columns):
//	    b[j][i] = 0.493*(b[j][i-1] + b[j-1][i] + b[j][i+1] + b[j+1][i])
//	              + (-0.972)*b[j][i]
//
// Following the paper, the array is indexed b[column][row] and the
// distributed loop is the inner column loop j, giving loop-carried
// dependences (pipelining), communication outside the distributed loop
// (the sweep-start boundary exchange), and repeated execution.
func SOR() *Program {
	n := Iv("n")
	j, i := Iv("j"), Iv("i")
	return &Program{
		Name:   "sor",
		Params: []string{"n", "maxiter"},
		Arrays: []*ArrayDecl{
			initArray("b", "hash", 3, n, n),
		},
		Body: []Stmt{
			For("iter", Ic(0), Iv("maxiter"),
				For("i", Ic(1), Isub(n, Ic(1)),
					For("j", Ic(1), Isub(n, Ic(1)),
						Set(Fref("b", j, i),
							Fadd(
								Fmul(Fc(0.493),
									Fadd(
										Fadd(Fref("b", j, Isub(i, Ic(1))), Fref("b", Isub(j, Ic(1)), i)),
										Fadd(Fref("b", j, Iadd(i, Ic(1))), Fref("b", Iadd(j, Ic(1)), i)))),
								Fmul(Fc(-0.972), Fref("b", j, i))))))),
		},
	}
}

// LU builds LU decomposition without pivoting (kji form) on a diagonally
// dominant matrix:
//
//	for k:
//	    for i in k+1..n:  a[i][k] = a[i][k] / a[k][k]
//	    for j in k+1..n:  for ii in k+1..n:
//	        a[ii][j] = a[ii][j] - a[ii][k]*a[k][j]
//
// The distributed loop is the column-update loop j: its bounds vary with k
// (Table 1 "varying loop bounds") and the work per iteration shrinks with k
// ("index-dependent iteration size" is "no" in the paper because within one
// invocation all iterations cost the same — the per-invocation size varies
// instead). Columns ≤ k become inactive as the computation proceeds.
func LU() *Program {
	n := Iv("n")
	k, i, j, ii := Iv("k"), Iv("i"), Iv("j"), Iv("ii")
	return &Program{
		Name:   "lu",
		Params: []string{"n"},
		Arrays: []*ArrayDecl{
			// Strong diagonal: no pivoting required.
			initArray("a", "diagdom", 4, n, n),
		},
		Body: []Stmt{
			For("k", Ic(0), n,
				For("i", Iadd(k, Ic(1)), n,
					Set(Fref("a", i, k), Fdiv(Fref("a", i, k), Fref("a", k, k)))),
				For("j", Iadd(k, Ic(1)), n,
					For("ii", Iadd(k, Ic(1)), n,
						Set(Fref("a", ii, j),
							Fsub(Fref("a", ii, j), Fmul(Fref("a", ii, k), Fref("a", k, j))))))),
		},
	}
}

// Jacobi builds a two-array 5-point Jacobi relaxation, row-distributed:
//
//	for iter:
//	    for i: for j:  anew[i][j] = 0.25*(a[i-1][j]+a[i+1][j]+a[i][j-1]+a[i][j+1])
//	    for i2: for j2: a[i2][j2] = anew[i2][j2]
//
// Unlike SOR there are no loop-carried dependences within a sweep, so work
// can move freely, but the row-boundary reads require a ghost exchange at
// every outer iteration (communication outside the distributed loop
// without pipelining).
func Jacobi() *Program {
	n := Iv("n")
	i, j := Iv("i"), Iv("j")
	i2, j2 := Iv("i2"), Iv("j2")
	return &Program{
		Name:   "jacobi",
		Params: []string{"n", "maxiter"},
		Arrays: []*ArrayDecl{
			initArray("a", "hash", 5, n, n),
			{Name: "anew", Dims: []IExpr{n, n}},
		},
		Body: []Stmt{
			For("iter", Ic(0), Iv("maxiter"),
				For("i", Ic(1), Isub(n, Ic(1)),
					For("j", Ic(1), Isub(n, Ic(1)),
						Set(Fref("anew", i, j),
							Fmul(Fc(0.25),
								Fadd(
									Fadd(Fref("a", Isub(i, Ic(1)), j), Fref("a", Iadd(i, Ic(1)), j)),
									Fadd(Fref("a", i, Isub(j, Ic(1))), Fref("a", i, Iadd(j, Ic(1))))))))),
				For("i2", Ic(1), Isub(n, Ic(1)),
					For("j2", Ic(1), Isub(n, Ic(1)),
						Set(Fref("a", i2, j2), Fref("anew", i2, j2))))),
		},
	}
}

// ThresholdRelax is a relaxation whose per-element work depends on the data
// (an If in the distributed loop body). It exists to exercise the
// "data-dependent iteration size" property detection; the paper notes such
// loops make iteration cost unpredictable for the load balancer.
func ThresholdRelax() *Program {
	n := Iv("n")
	i, j := Iv("i"), Iv("j")
	return &Program{
		Name:   "threshold-relax",
		Params: []string{"n", "maxiter"},
		Arrays: []*ArrayDecl{
			initArray("v", "hash", 6, n, n),
		},
		Body: []Stmt{
			For("iter", Ic(0), Iv("maxiter"),
				For("i", Ic(1), Isub(n, Ic(1)),
					For("j", Ic(1), Isub(n, Ic(1)),
						&If{
							Cond: Cond{Op: ">", L: Fref("v", i, j), R: Fc(0.5)},
							Then: []Stmt{
								Set(Fref("v", i, j),
									Fmul(Fc(0.25),
										Fadd(
											Fadd(Fref("v", Isub(i, Ic(1)), j), Fref("v", Iadd(i, Ic(1)), j)),
											Fadd(Fref("v", i, Isub(j, Ic(1))), Fref("v", i, Iadd(j, Ic(1))))))),
							},
						}))),
		},
	}
}

// PeriodicSOR is SOR on a cylinder: before each sweep, the boundary
// columns are refreshed from the opposite interior columns (periodic
// boundary conditions). The boundary copies write one distributed column
// while reading another — distributed references outside the distributed
// loop, the paper's §4.6 case, compiled into owner blocks bracketed by
// broadcasts.
func PeriodicSOR() *Program {
	n := Iv("n")
	j, i := Iv("j"), Iv("i")
	i2, i3 := Iv("i2"), Iv("i3")
	return &Program{
		Name:   "periodic-sor",
		Params: []string{"n", "maxiter"},
		Arrays: []*ArrayDecl{
			initArray("b", "hash", 11, n, n),
		},
		Body: []Stmt{
			For("iter", Ic(0), Iv("maxiter"),
				// b[0][*] = b[n-2][*]; b[n-1][*] = b[1][*]
				For("i2", Ic(0), n,
					Set(Fref("b", Ic(0), i2), Fref("b", Isub(n, Ic(2)), i2))),
				For("i3", Ic(0), n,
					Set(Fref("b", Isub(n, Ic(1)), i3), Fref("b", Ic(1), i3))),
				For("i", Ic(1), Isub(n, Ic(1)),
					For("j", Ic(1), Isub(n, Ic(1)),
						Set(Fref("b", j, i),
							Fadd(
								Fmul(Fc(0.493),
									Fadd(
										Fadd(Fref("b", j, Isub(i, Ic(1))), Fref("b", Isub(j, Ic(1)), i)),
										Fadd(Fref("b", j, Iadd(i, Ic(1))), Fref("b", Iadd(j, Ic(1)), i)))),
								Fmul(Fc(-0.972), Fref("b", j, i))))))),
		},
	}
}

// JacobiConverge is Jacobi relaxation with data-dependent termination: the
// outer loop runs until the squared residual drops below a threshold (or
// maxiter is reached). The residual accumulation into the replicated
// one-element array r is a sum reduction across the distributed loop, and
// the break condition is the paper's data-dependent WHILE case (§4.1): the
// number of load-balancing phases is only known at run time.
func JacobiConverge() *Program {
	n := Iv("n")
	i, j := Iv("i"), Iv("j")
	i2, j2 := Iv("i2"), Iv("j2")
	diff := Fsub(Fref("anew", i2, j2), Fref("a", i2, j2))
	return &Program{
		Name:   "jacobi-converge",
		Params: []string{"n", "maxiter"},
		Arrays: []*ArrayDecl{
			initArray("a", "hash", 5, n, n),
			{Name: "anew", Dims: []IExpr{n, n}},
			{Name: "r", Dims: []IExpr{Ic(1)}},
		},
		Body: []Stmt{
			&Loop{
				Var: "iter", Lo: Ic(0), Hi: Iv("maxiter"),
				BreakIf: &Cond{Op: "<", L: Fref("r", Ic(0)), R: Fc(1e-2)},
				Body: []Stmt{
					Set(Fref("r", Ic(0)), Fc(0)),
					For("i", Ic(1), Isub(n, Ic(1)),
						For("j", Ic(1), Isub(n, Ic(1)),
							Set(Fref("anew", i, j),
								Fmul(Fc(0.25),
									Fadd(
										Fadd(Fref("a", Isub(i, Ic(1)), j), Fref("a", Iadd(i, Ic(1)), j)),
										Fadd(Fref("a", i, Isub(j, Ic(1))), Fref("a", i, Iadd(j, Ic(1))))))))),
					For("i2", Ic(1), Isub(n, Ic(1)),
						For("j2", Ic(1), Isub(n, Ic(1)),
							Set(Fref("r", Ic(0)), Fadd(Fref("r", Ic(0)), Fmul(diff, diff))),
							Set(Fref("a", i2, j2), Fref("anew", i2, j2)))),
				},
			},
		},
	}
}

// Jacobi3D is a 7-point Jacobi relaxation on an n^3 grid, distributed along
// the first dimension (planes). Work units are whole planes; ghost
// exchanges and work movement ship 2-D plane slices, exercising the
// N-dimensional data paths.
func Jacobi3D() *Program {
	n := Iv("n")
	i, j, k := Iv("i"), Iv("j"), Iv("k")
	i2, j2, k2 := Iv("i2"), Iv("j2"), Iv("k2")
	return &Program{
		Name:   "jacobi3d",
		Params: []string{"n", "maxiter"},
		Arrays: []*ArrayDecl{
			initArray("u", "hash", 12, n, n, n),
			{Name: "unew", Dims: []IExpr{n, n, n}},
		},
		Body: []Stmt{
			For("iter", Ic(0), Iv("maxiter"),
				For("i", Ic(1), Isub(n, Ic(1)),
					For("j", Ic(1), Isub(n, Ic(1)),
						For("k", Ic(1), Isub(n, Ic(1)),
							Set(Fref("unew", i, j, k),
								Fmul(Fc(1.0/6.0),
									Fadd(
										Fadd(
											Fadd(Fref("u", Isub(i, Ic(1)), j, k), Fref("u", Iadd(i, Ic(1)), j, k)),
											Fadd(Fref("u", i, Isub(j, Ic(1)), k), Fref("u", i, Iadd(j, Ic(1)), k))),
										Fadd(Fref("u", i, j, Isub(k, Ic(1))), Fref("u", i, j, Iadd(k, Ic(1)))))))))),
				For("i2", Ic(1), Isub(n, Ic(1)),
					For("j2", Ic(1), Isub(n, Ic(1)),
						For("k2", Ic(1), Isub(n, Ic(1)),
							Set(Fref("u", i2, j2, k2), Fref("unew", i2, j2, k2)))))),
		},
	}
}

// Axpy is a simple one-dimensional y = alpha*x + y sweep repeated maxiter
// times — the smallest interesting distributed loop, used in tests.
func Axpy() *Program {
	n := Iv("n")
	i := Iv("i")
	return &Program{
		Name:   "axpy",
		Params: []string{"n", "maxiter"},
		Arrays: []*ArrayDecl{
			initArray("x", "hash", 7, n),
			initArray("y", "hash", 8, n),
		},
		Body: []Stmt{
			For("iter", Ic(0), Iv("maxiter"),
				For("i", Ic(0), n,
					Set(Fref("y", i),
						Fadd(Fmul(Fc(1.0001), Fref("x", i)), Fref("y", i))))),
		},
	}
}

// SpMV is a sparse matrix–vector product in banded ELL form, the first
// irregular workload: row i holds rowlen[i] stored entries (a power-law,
// block-correlated length read through a data-dependent loop bound) whose
// column indices are i + ofs[i][k] for band offsets in [-32,32). The row
// loop skips 32 rows at each edge so every band access stays in range.
// Per-row cost varies by a factor of ~64, which is exactly what the
// uniform-unit balancer cannot see; only the output vector y is
// distributed, so work movement is cheap relative to the imbalance.
func SpMV() *Program {
	n := Iv("n")
	i, k := Iv("i"), Iv("k")
	return &Program{
		Name:   "spmv",
		Params: []string{"n", "maxiter"},
		Arrays: []*ArrayDecl{
			initArray("val", "hash", 21, n, Ic(64)),
			initArray("ofs", "band", 22, n, Ic(64)),
			initArray("rowlen", "powrows", 23, n),
			initArray("x", "hash", 24, n),
			{Name: "y", Dims: []IExpr{n}}, // zero
		},
		Body: []Stmt{
			For("iter", Ic(0), Iv("maxiter"),
				For("i", Ic(32), Isub(n, Ic(32)),
					Set(Fref("y", i), Fc(0)),
					For("k", Ic(0), Ia("rowlen", i),
						Set(Fref("y", i),
							Fadd(Fref("y", i),
								Fmul(Fref("val", i, k),
									Fref("x", Iadd(i, Ia("ofs", i, k))))))))),
		},
	}
}

// PBin is a seeded power-law particle-binning interaction: bin i holds
// cnt[i] particles and accumulates all cnt[i]² pairwise products. The
// quadratic dependence on the data-dependent count makes per-bin cost vary
// by two orders of magnitude — the second irregular workload.
func PBin() *Program {
	n := Iv("n")
	i, k, l := Iv("i"), Iv("k"), Iv("l")
	return &Program{
		Name:   "pbin",
		Params: []string{"n", "maxiter"},
		Arrays: []*ArrayDecl{
			initArray("cnt", "powrows", 25, n),
			initArray("px", "hash", 26, n, Ic(64)),
			{Name: "f", Dims: []IExpr{n}}, // zero
		},
		Body: []Stmt{
			For("iter", Ic(0), Iv("maxiter"),
				For("i", Ic(0), n,
					Set(Fref("f", i), Fc(0)),
					For("k", Ic(0), Ia("cnt", i),
						For("l", Ic(0), Ia("cnt", i),
							Set(Fref("f", i),
								Fadd(Fref("f", i),
									Fmul(Fref("px", i, k), Fref("px", i, l)))))))),
		},
	}
}

// Library returns all built-in programs keyed by name.
func Library() map[string]*Program {
	out := map[string]*Program{}
	for _, p := range []*Program{MatMul(), SOR(), LU(), Jacobi(), JacobiConverge(), Jacobi3D(), ThresholdRelax(), Axpy(), PeriodicSOR(), SpMV(), PBin()} {
		out[p.Name] = p
	}
	return out
}
