package matrixform

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"oipsr/graph"
	"oipsr/internal/numeric"
	"oipsr/internal/simmat"
)

func randomGraph(rng *rand.Rand, n, m int) *graph.Graph {
	b := graph.NewBuilder(n, m)
	b.EnsureVertices(n)
	for i := 0; i < m; i++ {
		b.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	return b.MustBuild()
}

// denseQ materializes Q explicitly for oracle multiplication.
func denseQ(g *graph.Graph) [][]float64 {
	n := g.NumVertices()
	q := make([][]float64, n)
	for i := range q {
		q[i] = make([]float64, n)
		in := g.In(i)
		for _, j := range in {
			q[i][j] = 1 / float64(len(in))
		}
	}
	return q
}

func matmul(a, b [][]float64) [][]float64 {
	n := len(a)
	c := make([][]float64, n)
	for i := range c {
		c[i] = make([]float64, n)
		for k := 0; k < n; k++ {
			if a[i][k] == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				c[i][j] += float64(a[i][k] * b[k][j])
			}
		}
	}
	return c
}

func transpose(a [][]float64) [][]float64 {
	n := len(a)
	t := make([][]float64, n)
	for i := range t {
		t[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			t[i][j] = a[j][i]
		}
	}
	return t
}

func fromMatrix(m *simmat.Matrix) [][]float64 {
	n := m.N()
	out := make([][]float64, n)
	for i := range out {
		out[i] = append([]float64(nil), m.Row(i)...)
	}
	return out
}

// TestApplyQAgainstDense validates the sparse Q application against explicit
// dense multiplication on random graphs and random matrices.
func TestApplyQAgainstDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		g := randomGraph(rng, n, rng.Intn(3*n))
		src := simmat.New(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				src.Set(i, j, rng.NormFloat64())
			}
		}
		q := denseQ(g)

		dst := simmat.New(n)
		ApplyQ(g, src, dst)
		want := matmul(q, fromMatrix(src))
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if math.Abs(dst.At(i, j)-want[i][j]) > 1e-12 {
					return false
				}
			}
		}

		dst2 := simmat.New(n)
		ApplyQT(g, src, dst2)
		want2 := matmul(fromMatrix(src), transpose(q))
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if math.Abs(dst2.At(i, j)-want2[i][j]) > 1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestFixedPointEqualsGeometricSum: by induction the damped fixed-point
// iteration from S_0 = (1-C)I equals the truncated geometric series.
func TestFixedPointEqualsGeometricSum(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		g := randomGraph(rng, n, rng.Intn(3*n))
		c := 0.3 + float64(0.6*rng.Float64())
		k := rng.Intn(6)
		fp, err := FixedPoint(g, c, k)
		if err != nil {
			return false
		}
		gs, err := GeometricSum(g, c, k)
		if err != nil {
			return false
		}
		return simmat.MaxDiff(fp, gs) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestExponentialSumSmall checks Eq. 13 by hand on the sibling graph
// 0->1, 0->2: rows 1 and 2 of Q equal e_0 and row 0 is zero, so Q^i = 0 for
// i >= 2 on those rows and only the i=1 term contributes off-diagonal:
// s^(1,2) = e^-C * C. (Contrast with the Jeh-Widom iterative form, where
// the pinned diagonal feeds back and s(1,2) = C — the two forms measure the
// same structure on different scales, which is why each engine is validated
// against its own formulation.)
func TestExponentialSumSmall(t *testing.T) {
	g := graph.MustFromEdges(3, [][2]int{{0, 1}, {0, 2}})
	c := 0.8
	s, err := ExponentialSum(g, c, 30)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(c * math.Exp(-c))
	if got := s.At(1, 2); math.Abs(got-want) > 1e-12 {
		t.Errorf("s^(1,2) = %g, want C*e^-C = %g", got, want)
	}
	// Diagonal of a source vertex: only the i=0 term contributes.
	if got := s.At(0, 0); math.Abs(got-math.Exp(-c)) > 1e-12 {
		t.Errorf("s^(0,0) = %g, want e^-C = %g", got, math.Exp(-c))
	}
}

// TestGeometricSumSmall mirrors the same closed form for Eq. 12: only the
// i=1 term survives off-diagonal, so s(1,2) = (1-C) * C.
func TestGeometricSumSmall(t *testing.T) {
	g := graph.MustFromEdges(3, [][2]int{{0, 1}, {0, 2}})
	c := 0.8
	s, err := GeometricSum(g, c, 200)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.At(1, 2); math.Abs(got-(1-c)*c) > 1e-12 {
		t.Errorf("s(1,2) = %g, want (1-C)*C = %g", got, (1-c)*c)
	}
}

// TestExponentialTailBound verifies Proposition 7 empirically: truncating
// the exponential series at k leaves an error of at most C^(k+1)/(k+1)!.
func TestExponentialTailBound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 12, 40)
	c := 0.8
	ref, err := ExponentialSum(g, c, 40) // effectively converged
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 1, 3, 5, 8} {
		s, err := ExponentialSum(g, c, k)
		if err != nil {
			t.Fatal(err)
		}
		if d, bound := simmat.MaxDiff(s, ref), numeric.ExponentialTailBound(c, k); d > bound+1e-15 {
			t.Errorf("k=%d: error %g exceeds bound %g", k, d, bound)
		}
	}
}

// TestSymmetryAndRange: both series are symmetric positive matrices with
// entries in [0, 1].
func TestSymmetryAndRange(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomGraph(rng, 15, 60)
	for name, s := range map[string]*simmat.Matrix{} {
		_ = name
		_ = s
	}
	gs, err := GeometricSum(g, 0.7, 20)
	if err != nil {
		t.Fatal(err)
	}
	es, err := ExponentialSum(g, 0.7, 20)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*simmat.Matrix{"geometric": gs, "exponential": es} {
		st := s.Copy()
		st.Transpose(1)
		if d := simmat.MaxDiff(s, st); d > 1e-12 {
			t.Errorf("%s: asymmetry %g", name, d)
		}
		if lo, hi := slices.Min(s.Data()), slices.Max(s.Data()); lo < -1e-12 || hi > 1+1e-12 {
			t.Errorf("%s: entries in [%g,%g], outside [0,1]", name, lo, hi)
		}
	}
}

func TestBadInputs(t *testing.T) {
	g := graph.MustFromEdges(2, [][2]int{{0, 1}})
	if _, err := FixedPoint(g, 0, 1); err == nil {
		t.Error("want error for C=0")
	}
	if _, err := GeometricSum(g, 0.5, -1); err == nil {
		t.Error("want error for K<0")
	}
	if _, err := ExponentialSum(g, 2, 1); err == nil {
		t.Error("want error for C=2")
	}
}
