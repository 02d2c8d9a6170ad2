// Package matrixform implements SimRank in its matrix representation
// (Section II-B): S = C * Q S Q^T + (1-C) I_n, where Q is the backward
// transition matrix with [Q]_{i,j} = 1/|I(i)| for j in I(i).
//
// It provides three computations, all via sparse application of Q (never
// materializing Q as a dense matrix):
//
//   - FixedPoint: the damped iteration S_{k+1} = C Q S_k Q^T + (1-C) I.
//   - GeometricSum: the truncated power series of Eq. 12,
//     S_K = (1-C) * sum_{i=0..K} C^i Q^i (Q^T)^i.
//   - ExponentialSum: the truncated series of Eq. 13,
//     S^_K = e^-C * sum_{i=0..K} (C^i/i!) Q^i (Q^T)^i,
//     the definition the differential SimRank engine must agree with.
//
// Note the matrix form is NOT numerically identical to the Jeh-Widom
// iterative form: Eq. 2 pins the diagonal to exactly 1 every iteration,
// while Eq. 3 lets diagonal entries float in [1-C, 1]. The paper calls the
// forms consistent citing [14]; this package exists precisely so each engine
// can be validated against the formulation it actually implements.
package matrixform

import (
	"fmt"
	"math"

	"oipsr/graph"
	"oipsr/internal/numeric"
	"oipsr/internal/simmat"
)

// ApplyQ computes dst = Q * src: row i of dst is the average of the rows of
// src indexed by I(i), or zero when I(i) is empty.
func ApplyQ(g *graph.Graph, src, dst *simmat.Matrix) {
	n := g.NumVertices()
	for i := 0; i < n; i++ {
		row := dst.Row(i)
		in := g.In(i)
		if len(in) == 0 {
			for j := range row {
				row[j] = 0
			}
			continue
		}
		inv := 1 / float64(len(in))
		first := src.Row(in[0])
		copy(row, first)
		for _, u := range in[1:] {
			r := src.Row(u)
			for j := range row {
				row[j] += r[j]
			}
		}
		for j := range row {
			row[j] *= inv
		}
	}
}

// ApplyQT computes dst = src * Q^T: column j of dst is the average of the
// columns of src indexed by I(j). Implemented row-wise for locality.
func ApplyQT(g *graph.Graph, src, dst *simmat.Matrix) {
	n := g.NumVertices()
	for i := 0; i < n; i++ {
		srow := src.Row(i)
		drow := dst.Row(i)
		for j := 0; j < n; j++ {
			in := g.In(j)
			if len(in) == 0 {
				drow[j] = 0
				continue
			}
			sum := 0.0
			for _, u := range in {
				sum += srow[u]
			}
			drow[j] = sum / float64(len(in))
		}
	}
}

// Conjugate computes dst = Q * src * Q^T using tmp as scratch. All three
// matrices must be n x n and distinct.
func Conjugate(g *graph.Graph, src, tmp, dst *simmat.Matrix) {
	ApplyQ(g, src, tmp)
	ApplyQT(g, tmp, dst)
}

// FixedPoint runs k iterations of S_{k+1} = C Q S_k Q^T + (1-C) I starting
// from S_0 = (1-C) I and returns S_k.
func FixedPoint(g *graph.Graph, c float64, k int) (*simmat.Matrix, error) {
	if err := check(c, k); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	s := simmat.New(n)
	for i := 0; i < n; i++ {
		s.Set(i, i, 1-c)
	}
	tmp, next := simmat.New(n), simmat.New(n)
	for iter := 0; iter < k; iter++ {
		Conjugate(g, s, tmp, next)
		d := next.Data()
		for i := range d {
			d[i] *= c
		}
		for i := 0; i < n; i++ {
			next.Add(i, i, 1-c)
		}
		s, next = next, s
	}
	return s, nil
}

// GeometricSum returns S_K = (1-C) sum_{i=0..K} C^i Q^i (Q^T)^i (Eq. 12
// truncated after the C^K term).
func GeometricSum(g *graph.Graph, c float64, k int) (*simmat.Matrix, error) {
	if err := check(c, k); err != nil {
		return nil, err
	}
	return seriesSum(g, k, func(i int) float64 { return (1 - c) * math.Pow(c, float64(i)) }), nil
}

// ExponentialSum returns S^_K = e^-C sum_{i=0..K} (C^i/i!) Q^i (Q^T)^i
// (Eq. 13 truncated after the C^K/K! term). This is the reference value the
// differential SimRank iteration Eq. 15 must reproduce exactly.
func ExponentialSum(g *graph.Graph, c float64, k int) (*simmat.Matrix, error) {
	if err := check(c, k); err != nil {
		return nil, err
	}
	ec := math.Exp(-c)
	return seriesSum(g, k, func(i int) float64 {
		return ec * math.Pow(c, float64(i)) / numeric.Factorial(i)
	}), nil
}

// seriesSum accumulates sum_{i=0..k} coeff(i) * Q^i (Q^T)^i.
func seriesSum(g *graph.Graph, k int, coeff func(int) float64) *simmat.Matrix {
	n := g.NumVertices()
	acc := simmat.New(n)
	term := simmat.NewIdentity(n) // Q^i I (Q^T)^i, starting at i=0
	tmp, next := simmat.New(n), simmat.New(n)
	for i := 0; ; i++ {
		ci := coeff(i)
		ad, td := acc.Data(), term.Data()
		// float64(...) forbids a multiply-add, as in internal/dsr.
		for j := range ad {
			ad[j] += float64(ci * td[j])
		}
		if i == k {
			break
		}
		Conjugate(g, term, tmp, next)
		term, next = next, term
	}
	return acc
}

func check(c float64, k int) error {
	if !(c > 0 && c < 1) {
		return fmt.Errorf("matrixform: damping factor %v outside (0,1)", c)
	}
	if k < 0 {
		return fmt.Errorf("matrixform: negative iteration count %d", k)
	}
	return nil
}
