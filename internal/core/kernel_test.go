package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// accumulateRef is the row-at-a-time loop accumulate replaced: one full
// pass over p per row, adds or subs in row order.
func accumulateRef(p []float64, rows [][]float64, sub bool) {
	for _, r := range rows {
		for y := range p {
			if sub {
				p[y] -= r[y]
			} else {
				p[y] += r[y]
			}
		}
	}
}

// sameBits reports whether a and b have the same bits, with every NaN one
// value: when both operands of an addition are NaN, which payload survives
// depends on which register the compiler made the destination (it treats
// + as commutative), so NaN payloads differ between builds of one loop
// (-race moves them) and are no property of the operation order.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// checkAccumulate runs accumulate and the reference on copies of p and
// requires the results to agree bit for bit and every row to be unchanged.
func checkAccumulate(t *testing.T, p []float64, rows [][]float64, sub bool) {
	t.Helper()
	got, want := append([]float64(nil), p...), append([]float64(nil), p...)
	before := make([][]float64, len(rows))
	for i, r := range rows {
		before[i] = append([]float64(nil), r...)
	}
	accumulate(got, rows, sub)
	accumulateRef(want, rows, sub)
	for y := range want {
		if !sameBits(got[y], want[y]) {
			t.Fatalf("len %d, %d rows, sub=%v: p[%d] = %v (%#x), reference %v (%#x)",
				len(p), len(rows), sub, y, got[y], math.Float64bits(got[y]), want[y], math.Float64bits(want[y]))
		}
	}
	for i := range rows {
		for y := range rows[i] {
			if math.Float64bits(rows[i][y]) != math.Float64bits(before[i][y]) {
				t.Fatalf("len %d, %d rows, sub=%v: row %d written at %d", len(p), len(rows), sub, i, y)
			}
		}
	}
}

// kernelSpecials are the values whose addition order shows in the bits:
// signed zeros, subnormals, infinities, NaN, and magnitudes far enough
// apart that a regrouped sum rounds differently.
var kernelSpecials = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1022 / 3, math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, -math.MaxFloat64,
	1, -1, 1e16, -1e16, 0.1, 1e-300,
}

// TestAccumulateMatchesRowAtATime: for 0-9 rows of both signs and every
// length 0-67, the grouped kernel equals the one-row-at-a-time loop by
// bits, on random values seeded with the special ones, and leaves every
// row as it found it. Rows longer than p are read only up to len(p).
func TestAccumulateMatchesRowAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	value := func() float64 {
		if rng.Intn(3) == 0 {
			return kernelSpecials[rng.Intn(len(kernelSpecials))]
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
	}
	for nrows := 0; nrows <= 9; nrows++ {
		for length := 0; length <= 67; length++ {
			for trial := 0; trial < 4; trial++ {
				p := make([]float64, length)
				for y := range p {
					p[y] = value()
				}
				rows := make([][]float64, nrows)
				for i := range rows {
					rows[i] = make([]float64, length+rng.Intn(2)*3)
					for y := range rows[i] {
						rows[i][y] = value()
					}
				}
				checkAccumulate(t, p, rows, false)
				checkAccumulate(t, p, rows, true)
			}
		}
	}
}

// FuzzAccumulate drives the same check from fuzzer bytes: the first byte
// picks the row count (0-9), the second the length (0-67), and the rest,
// eight bytes at a time and cycled, are the float64 bits of p and then of
// each row.
func FuzzAccumulate(f *testing.F) {
	var specials []byte
	for _, v := range kernelSpecials {
		specials = binary.LittleEndian.AppendUint64(specials, math.Float64bits(v))
	}
	f.Add(append([]byte{5, 17}, specials...), false)
	f.Add(append([]byte{9, 67}, specials...), true)
	f.Add([]byte{4, 0}, true)
	f.Fuzz(func(t *testing.T, data []byte, sub bool) {
		if len(data) < 2 {
			return
		}
		nrows, length := int(data[0])%10, int(data[1])%68
		bits := data[2:]
		k := 0
		next := func() float64 {
			if len(bits) < 8 {
				return 0
			}
			o := (8 * k) % (len(bits) - len(bits)%8)
			k++
			return math.Float64frombits(binary.LittleEndian.Uint64(bits[o:]))
		}
		p := make([]float64, length)
		for y := range p {
			p[y] = next()
		}
		rows := make([][]float64, nrows)
		for i := range rows {
			rows[i] = make([]float64, length)
			for y := range rows[i] {
				rows[i][y] = next()
			}
		}
		checkAccumulate(t, p, rows, sub)
	})
}
