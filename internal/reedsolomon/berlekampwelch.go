package reedsolomon

import (
	"fmt"

	"repro/internal/field"
	"repro/internal/poly"
)

// DecodeBW is the classical Berlekamp–Welch decoder the paper names in
// §IV Step 3: find an error-locator polynomial e(x) (monic, degree E) and
// a product polynomial q(x) (degree ≤ K−1+E) satisfying
//
//	q(x_i) = y_i·e(x_i)   for every received evaluation,
//
// then recover the message polynomial as f = q / e. It is mathematically
// equivalent to Decode (Gao's extended-Euclidean formulation) and kept as
// an independently-implemented cross-check: the two share no code beyond
// field arithmetic, so agreement between them validates both.
//
// The linear system is solved by Gaussian elimination over GF(p); when it
// is singular the actual error count is below the attempted E and the
// decoder retries with a smaller budget. The scan runs from the largest
// budget down and returns the first attempt that succeeds and verifies.
// Only tests call it; the production decoders are Decode and DecodeBatch.
func DecodeBW(xs, ys []field.Element, k int) (*Result, error) {
	n := len(xs)
	if len(ys) != n {
		return nil, fmt.Errorf("reedsolomon: %d points but %d values", n, len(ys))
	}
	if k < 1 {
		return nil, fmt.Errorf("reedsolomon: message degree bound k=%d must be >= 1", k)
	}
	if n < k {
		return nil, fmt.Errorf("reedsolomon: need at least k=%d evaluations, got %d", k, n)
	}
	if !field.Distinct(xs) {
		return nil, fmt.Errorf("reedsolomon: evaluation points must be distinct")
	}
	maxE := MaxErrors(n, k)
	for e := maxE; e >= 0; e-- {
		if res := bwVerifiedAttempt(xs, ys, k, e, maxE); res != nil {
			return res, nil
		}
	}
	return nil, ErrTooManyErrors
}

// bwVerifiedAttempt runs one error-budget attempt plus the decoder's
// post-check: the recovered polynomial must disagree with the received
// word in at most maxE positions. It returns nil when the budget fails.
func bwVerifiedAttempt(xs, ys []field.Element, k, e, maxE int) *Result {
	f, ok := bwAttempt(xs, ys, k, e)
	if !ok {
		return nil
	}
	var errPos []int
	for i, x := range xs {
		if f.Eval(x) != ys[i] {
			errPos = append(errPos, i)
		}
	}
	if len(errPos) > maxE {
		return nil
	}
	return &Result{Poly: f, ErrorPositions: errPos}
}

// bwAttempt solves the Berlekamp–Welch system for a fixed error budget e.
// Unknowns: q_0..q_{k+e-1} and e_0..e_{e-1} (the locator is monic, so its
// leading coefficient is fixed at 1). Equations, one per received point:
//
//	Σ_j q_j·x^j − y·Σ_j e_j·x^j = y·x^e.
func bwAttempt(xs, ys []field.Element, k, e int) (poly.Poly, bool) {
	n := len(xs)
	cols := k + 2*e // q has k+e coefficients, the locator e
	if cols > n {
		return nil, false
	}
	// Build the augmented matrix [A | b].
	a := make([][]field.Element, n)
	for i := 0; i < n; i++ {
		row := make([]field.Element, cols+1)
		a[i] = row
		pw := field.One
		for j := 0; j < k+e; j++ {
			row[j] = pw
			pw = pw.Mul(xs[i])
		}
		pw = field.One
		for j := 0; j < e; j++ {
			row[k+e+j] = ys[i].Mul(pw).Neg()
			pw = pw.Mul(xs[i])
		}
		// pw is now x^e.
		row[cols] = ys[i].Mul(pw)
	}
	sol, ok := solveField(a, cols)
	if !ok {
		return nil, false
	}
	q := poly.New(sol[:k+e]...)
	locCoeffs := make([]field.Element, e+1)
	copy(locCoeffs, sol[k+e:])
	locCoeffs[e] = field.One // monic
	loc := poly.New(locCoeffs...)
	f, rem := q.QuoRem(loc)
	if !rem.IsZero() || f.Degree() > k-1 {
		return nil, false
	}
	return f, true
}

// solveField solves an overdetermined linear system over GF(p) given as
// augmented rows (cols unknowns, last column the RHS). It returns false
// when the system is inconsistent or underdetermined in a pivot column —
// callers treat that as "this error budget does not fit".
func solveField(rows [][]field.Element, cols int) ([]field.Element, bool) {
	n := len(rows)
	rank := 0
	for col := 0; col < cols && rank < n; col++ {
		// Find a pivot.
		pivot := -1
		for r := rank; r < n; r++ {
			if rows[r][col] != field.Zero {
				pivot = r
				break
			}
		}
		if pivot == -1 {
			// Free column: fix the unknown at zero by leaving it; the
			// back-substitution below treats missing pivots as zero.
			continue
		}
		rows[rank], rows[pivot] = rows[pivot], rows[rank]
		inv := rows[rank][col].Inv()
		for c := col; c <= cols; c++ {
			rows[rank][c] = rows[rank][c].Mul(inv)
		}
		for r := 0; r < n; r++ {
			if r == rank || rows[r][col] == field.Zero {
				continue
			}
			// rows[r] += (−factor)·rows[rank] over the active columns, via
			// the fused kernel: one reduction per element instead of the
			// separate Mul and Sub reductions of the scalar form.
			neg := rows[r][col].Neg()
			field.MulAddVec(rows[r][col:cols+1], neg, rows[rank][col:cols+1])
		}
		rank++
	}
	// Inconsistency check: a zero row with non-zero RHS.
	for r := rank; r < n; r++ {
		if rows[r][cols] != field.Zero {
			return nil, false
		}
	}
	// Read the solution: pivot columns carry values, free ones are zero.
	sol := make([]field.Element, cols)
	r := 0
	for col := 0; col < cols && r < rank; col++ {
		if rows[r][col] == field.One {
			// Verify this row's pivot really is this column (all earlier
			// entries eliminated).
			isPivot := true
			for c := 0; c < col; c++ {
				if rows[r][c] != field.Zero {
					isPivot = false
					break
				}
			}
			if isPivot {
				sol[col] = rows[r][cols]
				r++
			}
		}
	}
	return sol, true
}
