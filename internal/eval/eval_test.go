package eval

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNDCGPerfectRanking(t *testing.T) {
	rel := []float64{3, 2, 1, 0}
	ranking := []int{0, 1, 2, 3}
	for _, p := range []int{1, 2, 4} {
		if got := NDCG(rel, ranking, p); math.Abs(got-1) > 1e-12 {
			t.Errorf("NDCG@%d of perfect ranking = %g, want 1", p, got)
		}
	}
}

func TestNDCGKnownValue(t *testing.T) {
	// Two items, grades 1 and 0, ranked worst-first:
	// DCG = 0/log2(2) + 1/log2(3); IDCG = 1/log2(2) = 1.
	rel := []float64{0, 1}
	got := NDCG(rel, []int{0, 1}, 2)
	want := 1 / math.Log2(3)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("NDCG = %g, want %g", got, want)
	}
}

func TestNDCGImperfectBelowOne(t *testing.T) {
	rel := []float64{3, 2, 1, 0}
	rev := []int{3, 2, 1, 0}
	if got := NDCG(rel, rev, 4); got >= 1 {
		t.Errorf("reversed ranking NDCG = %g, want < 1", got)
	}
}

func TestNDCGEdgeCases(t *testing.T) {
	if NDCG([]float64{0, 0}, []int{0, 1}, 2) != 1 {
		t.Error("all-zero relevance must give NDCG 1")
	}
	if NDCG([]float64{1}, []int{0}, 0) != 1 {
		t.Error("p = 0 must give NDCG 1")
	}
	// p beyond the ranking length clamps.
	if got := NDCG([]float64{1, 0}, []int{0, 1}, 10); math.Abs(got-1) > 1e-12 {
		t.Errorf("clamped NDCG = %g, want 1", got)
	}
}

func TestGradeByRank(t *testing.T) {
	// Ideal order: item 5 first, then 3, then 1; cutoffs 1, 2, 3: grades
	// 3, 2, 1 respectively, others 0.
	rel := GradeByRank(6, []int{5, 3, 1}, []int{1, 2, 3})
	want := []float64{0, 1, 0, 2, 0, 3}
	if !reflect.DeepEqual(rel, want) {
		t.Errorf("grades = %v, want %v", rel, want)
	}
}

func TestRankAndTopK(t *testing.T) {
	scores := []float64{0.1, 0.9, 0.5, 0.9}
	r := Rank(scores, nil)
	// Ties broken by index: 1 before 3.
	if !reflect.DeepEqual(r, []int{1, 3, 2, 0}) {
		t.Errorf("Rank = %v", r)
	}
	top := TopK(scores, 2, func(i int) bool { return i == 1 })
	if !reflect.DeepEqual(top, []int{3, 2}) {
		t.Errorf("TopK with skip = %v, want [3 2]", top)
	}
}

func TestKendallTau(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	if got := KendallTau(a, a); got != 1 {
		t.Errorf("tau(a,a) = %g, want 1", got)
	}
	rev := []float64{4, 3, 2, 1}
	if got := KendallTau(a, rev); got != -1 {
		t.Errorf("tau(a,rev) = %g, want -1", got)
	}
	if got := KendallTau([]float64{1, 1}, []float64{2, 3}); got != 1 {
		t.Errorf("all-tied tau = %g, want 1 by convention", got)
	}
}

func TestSpearmanRho(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	if got := SpearmanRho(a, a); math.Abs(got-1) > 1e-12 {
		t.Errorf("rho(a,a) = %g", got)
	}
	rev := []float64{5, 4, 3, 2, 1}
	if got := SpearmanRho(a, rev); math.Abs(got+1) > 1e-12 {
		t.Errorf("rho(a,rev) = %g, want -1", got)
	}
	// Monotone transform preserves rho = 1.
	squared := []float64{1, 4, 9, 16, 25}
	if got := SpearmanRho(a, squared); math.Abs(got-1) > 1e-12 {
		t.Errorf("rho under monotone transform = %g, want 1", got)
	}
}

func TestInversions(t *testing.T) {
	a := []int{10, 20, 30}
	if got := Inversions(a, a); got != 0 {
		t.Errorf("inversions(a,a) = %d", got)
	}
	// One adjacent swap = exactly one inversion (the Fig. 6h situation).
	if got := Inversions([]int{10, 30, 20}, a); got != 1 {
		t.Errorf("adjacent swap inversions = %d, want 1", got)
	}
	if got := Inversions([]int{30, 20, 10}, a); got != 3 {
		t.Errorf("full reversal inversions = %d, want 3", got)
	}
	// Items missing from one list are ignored.
	if got := Inversions([]int{10, 99, 20}, a); got != 0 {
		t.Errorf("inversions with foreign item = %d, want 0", got)
	}
}

func TestTopKOverlap(t *testing.T) {
	if got := TopKOverlap([]int{1, 2, 3}, []int{3, 2, 1}); got != 1 {
		t.Errorf("overlap = %g, want 1", got)
	}
	if got := TopKOverlap([]int{1, 2}, []int{3, 4}); got != 0 {
		t.Errorf("overlap = %g, want 0", got)
	}
	if got := TopKOverlap([]int{1, 2, 3, 4}, []int{1, 2}); got != 0.5 {
		t.Errorf("overlap = %g, want 0.5", got)
	}
	if got := TopKOverlap(nil, nil); got != 1 {
		t.Errorf("empty overlap = %g, want 1", got)
	}
}

// TestMetricsAgreeOnNoisyPerturbation: small score noise should leave all
// rank correlations near 1 — the property Exp-4 relies on when comparing
// DSR scores to conventional scores.
func TestMetricsAgreeOnNoisyPerturbation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(30)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = float64(i) // well-separated scores
			b[i] = a[i] + float64(rng.Float64()*0.2)
		}
		return KendallTau(a, b) > 0.9 && SpearmanRho(a, b) > 0.9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestNDCGMonotoneInRankQuality: swapping two correctly-ordered items can
// never raise NDCG.
func TestNDCGMonotoneInRankQuality(t *testing.T) {
	rel := []float64{3, 2, 1, 0, 0, 0}
	perfect := []int{0, 1, 2, 3, 4, 5}
	base := NDCG(rel, perfect, 6)
	for i := 0; i < 5; i++ {
		swapped := append([]int(nil), perfect...)
		swapped[i], swapped[i+1] = swapped[i+1], swapped[i]
		if got := NDCG(rel, swapped, 6); got > base+1e-12 {
			t.Errorf("swap at %d raised NDCG: %g > %g", i, got, base)
		}
	}
}

func TestPrecisionAtK(t *testing.T) {
	row := []float64{1.0, 0.9, 0.8, 0.7, 0.3, 0.2, 0.1}
	// Perfect top-3 (skip the query vertex 0): {1, 2, 3}.
	if p := PrecisionAtK(row, 0, []int{1, 2, 3}, 3); p != 1 {
		t.Errorf("perfect list: precision = %v, want 1", p)
	}
	// One miss.
	if p := PrecisionAtK(row, 0, []int{1, 2, 6}, 3); p != 2.0/3 {
		t.Errorf("one miss: precision = %v, want 2/3", p)
	}
	// Ties at the boundary: row2's 3rd best is 0.8, shared by items 2 and 3
	// — either counts.
	row2 := []float64{1.0, 0.9, 0.8, 0.8, 0.3}
	for _, got := range [][]int{{1, 2, 3}, {1, 3, 2}} {
		if p := PrecisionAtK(row2, 0, got, 3); p != 1 {
			t.Errorf("tie boundary %v: precision = %v, want 1", got, p)
		}
	}
	// Short result lists are penalized: 2 of 3 returned.
	if p := PrecisionAtK(row, 0, []int{1, 2}, 3); p != 2.0/3 {
		t.Errorf("short list: precision = %v, want 2/3", p)
	}
	// Degenerate k.
	if p := PrecisionAtK(row, 0, nil, 0); p != 1 {
		t.Errorf("k=0: precision = %v, want 1", p)
	}
}
