package simmat

import (
	"math"
	"math/rand"
	"testing"
)

// TestMaxDiffWorkersMatchesSerial: max is order-independent, so the blocked
// parallel reduction must return exactly the serial answer.
func TestMaxDiffWorkersMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 7, 50} {
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
				b.Set(i, j, rng.NormFloat64())
			}
		}
		want := MaxDiff(a, b)
		for _, workers := range []int{1, 2, 3, 16} {
			if got := MaxDiffWorkers(a, b, workers); got != want {
				t.Errorf("n=%d workers=%d: MaxDiffWorkers = %g, MaxDiff = %g", n, workers, got, want)
			}
		}
	}
}

func TestMaxDiffWorkersDimensionMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on dimension mismatch")
		}
	}()
	MaxDiffWorkers(New(3), New(4), 2)
}

func TestStateBytes(t *testing.T) {
	if got := StateBytes(10, 2); got != 2*10*10*8 {
		t.Errorf("StateBytes(10,2) = %d", got)
	}
	// Must agree with the matrices it accounts for.
	m := New(37)
	if got := StateBytes(37, 3); got != 3*m.Bytes() {
		t.Errorf("StateBytes(37,3) = %d, want %d", got, 3*m.Bytes())
	}
	if StateBytes(0, 5) != 0 {
		t.Error("StateBytes(0,5) != 0")
	}
}

// TestTranspose: the in-place tiled transpose equals a naive transposed
// copy, bit for bit, at every worker count, for sizes below, at and above
// one and two tiles, and applied twice gives back the input.
func TestTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 31, 32, 33, 64, 65, 499} {
		in := New(n)
		for i := range in.data {
			in.data[i] = rng.NormFloat64()
		}
		want := New(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want.Set(j, i, in.At(i, j))
			}
		}
		for _, workers := range []int{1, 2, 3} {
			m := in.Copy()
			m.Transpose(workers)
			if !sameData(m, want) {
				t.Errorf("n=%d workers=%d: Transpose differs from the naive copy", n, workers)
			}
			m.Transpose(workers)
			if !sameData(m, in) {
				t.Errorf("n=%d workers=%d: Transpose twice is not the identity", n, workers)
			}
		}
	}
}

// sameData reports whether a and b hold the same bits in every cell.
func sameData(a, b *Matrix) bool {
	if a.n != b.n {
		return false
	}
	for i, v := range a.data {
		if math.Float64bits(v) != math.Float64bits(b.data[i]) {
			return false
		}
	}
	return true
}
