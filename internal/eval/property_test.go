package eval

import (
	"math"
	"math/rand"
	"testing"
)

// Property tests for the ranking metrics: bounds, symmetries, and
// agreement with brute-force oracles on random inputs. Complements the
// example-based tests in eval_test.go.

func randScores(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.Float64()
		if rng.Intn(4) == 0 && i > 0 {
			s[i] = s[rng.Intn(i)] // inject ties
		}
	}
	return s
}

func randPerm(rng *rand.Rand, n int) []int { return rng.Perm(n) }

// TestNDCGBounds: NDCG is in [0, 1] for random relevances and rankings,
// and exactly 1 on the ideal ranking.
func TestNDCGBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(30)
		rel := make([]float64, n)
		for i := range rel {
			rel[i] = float64(rng.Intn(4))
		}
		ranking := randPerm(rng, n)
		p := 1 + rng.Intn(n+3) // p may exceed n
		got := NDCG(rel, ranking, p)
		if got < 0 || got > 1+1e-12 || math.IsNaN(got) {
			t.Fatalf("trial %d: NDCG = %v outside [0,1] (n=%d p=%d)", trial, got, n, p)
		}
		ideal := Rank(rel, nil)
		if ndcg := NDCG(rel, ideal, p); math.Abs(ndcg-1) > 1e-12 {
			t.Fatalf("trial %d: NDCG of ideal ranking = %v, want 1", trial, ndcg)
		}
	}
}

// TestKendallTauProperties: tau is symmetric in its arguments, bounded in
// [-1, 1], exactly 1 against itself and any strictly increasing transform,
// and exactly -1 against an order-reversing transform (when no ties).
func TestKendallTauProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(25)
		a, b := randScores(rng, n), randScores(rng, n)
		tab, tba := KendallTau(a, b), KendallTau(b, a)
		if tab != tba {
			t.Fatalf("trial %d: tau not symmetric: %v vs %v", trial, tab, tba)
		}
		if tab < -1 || tab > 1 || math.IsNaN(tab) {
			t.Fatalf("trial %d: tau = %v outside [-1,1]", trial, tab)
		}
		// Distinct values for the exact +/-1 identities.
		distinct := make([]float64, n)
		for i := range distinct {
			distinct[i] = float64(i) + float64(rng.Float64()*0.5)
		}
		rng.Shuffle(n, func(i, j int) { distinct[i], distinct[j] = distinct[j], distinct[i] })
		mono := make([]float64, n)
		anti := make([]float64, n)
		for i, v := range distinct {
			mono[i] = float64(3*v) + 7 // strictly increasing transform
			anti[i] = -v               // order-reversing transform
		}
		if got := KendallTau(distinct, distinct); got != 1 {
			t.Fatalf("trial %d: tau(x,x) = %v, want 1", trial, got)
		}
		if got := KendallTau(distinct, mono); got != 1 {
			t.Fatalf("trial %d: tau under monotone transform = %v, want 1", trial, got)
		}
		if got := KendallTau(distinct, anti); got != -1 {
			t.Fatalf("trial %d: tau under reversal = %v, want -1", trial, got)
		}
	}
}

// TestSpearmanRhoProperties mirrors the tau properties for rho.
func TestSpearmanRhoProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(25)
		a, b := randScores(rng, n), randScores(rng, n)
		rab, rba := SpearmanRho(a, b), SpearmanRho(b, a)
		if math.Abs(rab-rba) > 1e-12 {
			t.Fatalf("trial %d: rho not symmetric: %v vs %v", trial, rab, rba)
		}
		if rab < -1-1e-12 || rab > 1+1e-12 || math.IsNaN(rab) {
			t.Fatalf("trial %d: rho = %v outside [-1,1]", trial, rab)
		}
		distinct := make([]float64, n)
		for i := range distinct {
			distinct[i] = float64(rng.Intn(1000)) + float64(i)/float64(n)
		}
		anti := make([]float64, n)
		for i, v := range distinct {
			anti[i] = -v
		}
		if got := SpearmanRho(distinct, distinct); math.Abs(got-1) > 1e-12 {
			t.Fatalf("trial %d: rho(x,x) = %v, want 1", trial, got)
		}
		if got := SpearmanRho(distinct, anti); math.Abs(got+1) > 1e-12 {
			t.Fatalf("trial %d: rho under reversal = %v, want -1", trial, got)
		}
	}
}

// inversionsOracle counts discordant pairs by brute force over the items
// common to both rankings, independently of the implementation under test.
func inversionsOracle(a, b []int) int {
	posA := map[int]int{}
	for i, item := range a {
		posA[item] = i
	}
	posB := map[int]int{}
	for i, item := range b {
		posB[item] = i
	}
	var common []int
	for _, item := range a {
		if _, ok := posB[item]; ok {
			common = append(common, item)
		}
	}
	inv := 0
	for x := 0; x < len(common); x++ {
		for y := x + 1; y < len(common); y++ {
			i, j := common[x], common[y]
			if (posA[i] < posA[j]) != (posB[i] < posB[j]) {
				inv++
			}
		}
	}
	return inv
}

// TestInversionsAgainstOracle: Inversions matches the brute-force count on
// random permutations, including partially-overlapping item sets; it is 0
// against itself and C(n,2) against the reversal.
func TestInversionsAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(20)
		a := randPerm(rng, n)
		b := randPerm(rng, n)
		if got, want := Inversions(a, b), inversionsOracle(a, b); got != want {
			t.Fatalf("trial %d: Inversions = %d, oracle = %d (a=%v b=%v)", trial, got, want, a, b)
		}
		// Partial overlap: drop a random suffix of b's items.
		bb := append([]int(nil), b...)
		bb = bb[:rng.Intn(n+1)]
		if got, want := Inversions(a, bb), inversionsOracle(a, bb); got != want {
			t.Fatalf("trial %d: partial-overlap Inversions = %d, oracle = %d", trial, got, want)
		}
		if got := Inversions(a, a); got != 0 {
			t.Fatalf("trial %d: Inversions(a,a) = %d", trial, got)
		}
		rev := make([]int, n)
		for i, item := range a {
			rev[n-1-i] = item
		}
		if got := Inversions(a, rev); got != n*(n-1)/2 {
			t.Fatalf("trial %d: Inversions vs reversal = %d, want %d", trial, got, n*(n-1)/2)
		}
	}
}
