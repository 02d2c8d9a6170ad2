package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomDense(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

func TestDenseBasics(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(1, 2, 4)
	if m.At(1, 2) != 4 || m.Rows() != 2 || m.Cols() != 3 {
		t.Fatal("basic accessors broken")
	}
	tr := m.T()
	if tr.Rows() != 3 || tr.At(2, 1) != 4 {
		t.Error("transpose broken")
	}
	c := m.Copy()
	c.Set(0, 0, 9)
	if m.At(0, 0) == 9 {
		t.Error("Copy shares storage")
	}
	if m.Bytes() != 48 {
		t.Errorf("Bytes = %d, want 48", m.Bytes())
	}
}

func TestMulOracle(t *testing.T) {
	a := NewDense(2, 3)
	b := NewDense(3, 2)
	// a = [1 2 3; 4 5 6], b = [7 8; 9 10; 11 12]
	vals := []float64{1, 2, 3, 4, 5, 6}
	copy(a.data, vals)
	copy(b.data, []float64{7, 8, 9, 10, 11, 12})
	c := Mul(a, b)
	want := [][]float64{{58, 64}, {139, 154}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Errorf("c[%d,%d] = %g, want %g", i, j, c.At(i, j), want[i][j])
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("want panic for dimension mismatch")
		}
	}()
	Mul(a, a)
}

func TestScaleAddIdentity(t *testing.T) {
	i3 := Identity(3)
	if i3.At(1, 1) != 1 || i3.At(0, 1) != 0 {
		t.Fatal("Identity broken")
	}
	m := Identity(3).Scale(2)
	m.AddInPlace(Identity(3))
	if m.At(2, 2) != 3 {
		t.Error("Scale/AddInPlace broken")
	}
	if MaxAbsDiff(Identity(2), Identity(2)) != 0 {
		t.Error("MaxAbsDiff of equal matrices must be 0")
	}
}

// TestThinQRProperties: Q has orthonormal columns, R is upper triangular,
// and Q*R reconstructs the input.
func TestThinQRProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(20)
		k := 1 + rng.Intn(m)
		a := randomDense(rng, m, k)
		q, r := ThinQR(a)

		// Orthonormal columns: Q^T Q = I.
		qtq := Mul(q.T(), q)
		if MaxAbsDiff(qtq, Identity(k)) > 1e-10 {
			return false
		}
		// R upper triangular.
		for i := 1; i < k; i++ {
			for j := 0; j < i; j++ {
				if math.Abs(r.At(i, j)) > 1e-12 {
					return false
				}
			}
		}
		// Reconstruction.
		return MaxAbsDiff(Mul(q, r), a) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestThinQRRankDeficient(t *testing.T) {
	// Two identical columns: QR must still produce orthonormal Q and
	// reconstruct the input.
	a := NewDense(4, 2)
	for i := 0; i < 4; i++ {
		a.Set(i, 0, float64(i+1))
		a.Set(i, 1, float64(i+1))
	}
	q, r := ThinQR(a)
	if MaxAbsDiff(Mul(q, r), a) > 1e-10 {
		t.Error("rank-deficient reconstruction failed")
	}
}

func TestThinQRPanicsWide(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for wide input")
		}
	}()
	ThinQR(NewDense(2, 3))
}

// TestSymEigKnown: eigenvalues of [[2,1],[1,2]] are 3 and 1.
func TestSymEigKnown(t *testing.T) {
	a := NewDense(2, 2)
	copy(a.data, []float64{2, 1, 1, 2})
	w, v := SymEig(a)
	if math.Abs(w[0]-3) > 1e-12 || math.Abs(w[1]-1) > 1e-12 {
		t.Errorf("eigenvalues = %v, want [3 1]", w)
	}
	// v columns orthonormal.
	if MaxAbsDiff(Mul(v.T(), v), Identity(2)) > 1e-12 {
		t.Error("eigenvectors not orthonormal")
	}
}

// TestSymEigReconstruction: A = V diag(w) V^T on random symmetric matrices.
func TestSymEigReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		raw := randomDense(rng, n, n)
		a := Mul(raw, raw.T()) // symmetric PSD
		w, v := SymEig(a)
		// Decreasing eigenvalues.
		for i := 1; i < n; i++ {
			if w[i] > w[i-1]+1e-10 {
				return false
			}
		}
		d := NewDense(n, n)
		for i := 0; i < n; i++ {
			d.Set(i, i, w[i])
		}
		back := Mul(Mul(v, d), v.T())
		return MaxAbsDiff(back, a) < 1e-8*(1+math.Abs(w[0]))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestTruncatedSVDExactRank: on a matrix of known rank r, the rank-r SVD
// reconstructs it to machine precision.
func TestTruncatedSVDExactRank(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Build a rank-3 10x8 matrix.
	left := randomDense(rng, 10, 3)
	right := randomDense(rng, 3, 8)
	a := Mul(left, right)
	res, err := TruncatedSVD(DenseOperator{a}, 3, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct U S V^T.
	us := res.U.Copy()
	for i := 0; i < us.Rows(); i++ {
		for j := 0; j < 3; j++ {
			us.Set(i, j, us.At(i, j)*res.Sigma[j])
		}
	}
	back := Mul(us, res.V.T())
	if d := MaxAbsDiff(back, a); d > 1e-8 {
		t.Errorf("rank-3 reconstruction error %g", d)
	}
	// Orthonormality of U and V.
	if MaxAbsDiff(Mul(res.U.T(), res.U), Identity(3)) > 1e-9 {
		t.Error("U columns not orthonormal")
	}
	if MaxAbsDiff(Mul(res.V.T(), res.V), Identity(3)) > 1e-9 {
		t.Error("V columns not orthonormal")
	}
}

// TestTruncatedSVDSingularValues: against a diagonal matrix the singular
// values are exact.
func TestTruncatedSVDSingularValues(t *testing.T) {
	a := NewDense(5, 5)
	diag := []float64{9, 7, 4, 2, 0.5}
	for i, d := range diag {
		a.Set(i, i, d)
	}
	res, err := TruncatedSVD(DenseOperator{a}, 3, 40, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{9, 7, 4} {
		if math.Abs(res.Sigma[i]-want) > 1e-8 {
			t.Errorf("sigma[%d] = %g, want %g", i, res.Sigma[i], want)
		}
	}
}

func TestTruncatedSVDBadRank(t *testing.T) {
	a := Identity(3)
	if _, err := TruncatedSVD(DenseOperator{a}, 0, 5, 1); err == nil {
		t.Error("want error for rank 0")
	}
	if _, err := TruncatedSVD(DenseOperator{a}, 4, 5, 1); err == nil {
		t.Error("want error for rank > n")
	}
}

// TruncatedSVD is TruncatedSVDWorkers on one worker.
func TruncatedSVD(op Operator, rank, iters int, seed int64) (*SVDResult, error) {
	return TruncatedSVDWorkers(op, rank, iters, seed, 1)
}

// DenseOperator adapts a Dense matrix to the Operator interface, to
// validate TruncatedSVD against explicit matrices.
type DenseOperator struct{ M *Dense }

// Dims implements Operator.
func (d DenseOperator) Dims() (int, int) { return d.M.Rows(), d.M.Cols() }

// Apply implements Operator.
func (d DenseOperator) Apply(x, dst *Dense) {
	res := Mul(d.M, x)
	copy(dst.data, res.data)
}

// ApplyT implements Operator.
func (d DenseOperator) ApplyT(x, dst *Dense) {
	res := Mul(d.M.T(), x)
	copy(dst.data, res.data)
}
