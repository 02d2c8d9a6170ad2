// Package eval implements the ranking-quality metrics of the paper's Exp-4:
// NDCG@p (the paper's formula, with graded relevance), plus Kendall tau,
// Spearman rho, top-k extraction and inversion counting used to compare the
// relative order of OIP-DSR scores against conventional SimRank.
//
// The paper's ground truth (Section V, Exp-4) came from ten human
// evaluators; this reproduction substitutes the ranking induced by a
// converged conventional SimRank run, graded into relevance levels with
// GradeByRank (ARCHITECTURE.md, "The paper's machinery", internal/eval).
package eval

import (
	"math"
	"sort"
)

// NDCG computes the normalized discounted cumulative gain at position p:
//
//	NDCG_p = (1/IDCG_p) * sum_{i=1..p} (2^rel_i - 1) / log2(1 + i)
//
// exactly as defined in Section V-A. rel[item] is the graded relevance of
// each item; ranking lists items in the order the system produced. The
// normalizer IDCG_p uses the ideal (relevance-sorted) ordering, so a perfect
// ranking scores 1. Returns 1 for p <= 0 or when all relevances are zero
// (an empty ideal has nothing to get wrong).
func NDCG(rel []float64, ranking []int, p int) float64 {
	if p <= 0 {
		return 1
	}
	if p > len(ranking) {
		p = len(ranking)
	}
	dcg := 0.0
	for i := 0; i < p; i++ {
		dcg += (math.Exp2(rel[ranking[i]]) - 1) / math.Log2(float64(i)+2)
	}
	ideal := make([]float64, len(rel))
	copy(ideal, rel)
	sort.Sort(sort.Reverse(sort.Float64Slice(ideal)))
	idcg := 0.0
	for i := 0; i < p && i < len(ideal); i++ {
		idcg += (math.Exp2(ideal[i]) - 1) / math.Log2(float64(i)+2)
	}
	if idcg == 0 {
		return 1
	}
	return dcg / idcg
}

// GradeByRank assigns graded relevance from an ideal ranking: items at ideal
// positions < cutoffs[0] get grade len(cutoffs), positions < cutoffs[1] the
// next lower grade, and so on; items beyond the last cutoff get 0. This is
// the standard construction of graded ground truth from a reference ranking
// (substituting the paper's human judgments).
func GradeByRank(n int, ideal []int, cutoffs []int) []float64 {
	rel := make([]float64, n)
	for pos, item := range ideal {
		for level, cut := range cutoffs {
			if pos < cut {
				rel[item] = float64(len(cutoffs) - level)
				break
			}
		}
	}
	return rel
}

// Rank returns item indices sorted by decreasing score, breaking ties by
// index for determinism. skip, when non-nil, excludes items (e.g. the query
// vertex itself).
func Rank(scores []float64, skip func(int) bool) []int {
	var idx []int
	for i := range scores {
		if skip != nil && skip(i) {
			continue
		}
		idx = append(idx, i)
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if scores[idx[a]] != scores[idx[b]] {
			return scores[idx[a]] > scores[idx[b]]
		}
		return idx[a] < idx[b]
	})
	return idx
}

// TopK returns the first k entries of Rank (or fewer if not enough items).
func TopK(scores []float64, k int, skip func(int) bool) []int {
	r := Rank(scores, skip)
	if k < len(r) {
		r = r[:k]
	}
	return r
}

// KendallTau computes the rank correlation between two score vectors over
// the same items: (concordant - discordant) / (concordant + discordant),
// ignoring pairs tied in either vector. Returns 1 when every comparable
// pair agrees (including the degenerate all-tied case).
func KendallTau(a, b []float64) float64 {
	concordant, discordant := 0, 0
	for i := 0; i < len(a); i++ {
		for j := i + 1; j < len(a); j++ {
			pa, pb := a[i]-a[j], b[i]-b[j]
			switch {
			case pa*pb > 0:
				concordant++
			case pa*pb < 0:
				discordant++
			}
		}
	}
	if concordant+discordant == 0 {
		return 1
	}
	return float64(concordant-discordant) / float64(concordant+discordant)
}

// SpearmanRho computes the rank correlation via Pearson correlation of
// fractional ranks (ties get the mean of their positions).
func SpearmanRho(a, b []float64) float64 {
	ra, rb := fractionalRanks(a), fractionalRanks(b)
	return pearson(ra, rb)
}

func fractionalRanks(x []float64) []float64 {
	n := len(x)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return x[idx[a]] < x[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j < n && x[idx[j]] == x[idx[i]] {
			j++
		}
		mean := float64(i+j-1)/2 + 1
		for k := i; k < j; k++ {
			ranks[idx[k]] = mean
		}
		i = j
	}
	return ranks
}

func pearson(a, b []float64) float64 {
	n := float64(len(a))
	if n == 0 {
		return 1
	}
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= n
	mb /= n
	var cov, va, vb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 1
	}
	return cov / math.Sqrt(va*vb)
}

// Inversions counts the pairs of items ordered differently by the two
// rankings (restricted to items present in both). Fig. 6h reports that the
// OIP-DSR top-30 list differs from OIP-SR's by exactly one inversion of
// adjacent positions; this is the metric behind that claim.
func Inversions(a, b []int) int {
	pos := make(map[int]int, len(b))
	for i, item := range b {
		pos[item] = i
	}
	var seq []int
	for _, item := range a {
		if p, ok := pos[item]; ok {
			seq = append(seq, p)
		}
	}
	inv := 0
	for i := 0; i < len(seq); i++ {
		for j := i + 1; j < len(seq); j++ {
			if seq[i] > seq[j] {
				inv++
			}
		}
	}
	return inv
}

// SignificantInversions counts pairs of items that the two score vectors
// order in strictly opposite ways with both gaps exceeding tol. Pairs that
// either model scores within tol of each other are ties for ranking
// purposes — co-author communities produce many of them — and flipping a
// tie is not a quality loss, so they are excluded. items selects which
// indices participate (e.g. a top-30 list).
func SignificantInversions(items []int, a, b []float64, tol float64) int {
	inv := 0
	for x := 0; x < len(items); x++ {
		for y := x + 1; y < len(items); y++ {
			i, j := items[x], items[y]
			da, db := a[i]-a[j], b[i]-b[j]
			if (da > tol && db < -tol) || (da < -tol && db > tol) {
				inv++
			}
		}
	}
	return inv
}

// TopKOverlap returns |a ∩ b| / max(|a|, |b|), the fraction of shared items
// between two top-k lists.
func TopKOverlap(a, b []int) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	set := make(map[int]bool, len(a))
	for _, x := range a {
		set[x] = true
	}
	common := 0
	for _, x := range b {
		if set[x] {
			common++
		}
	}
	den := len(a)
	if len(b) > den {
		den = len(b)
	}
	return float64(common) / float64(den)
}

// PrecisionAtK scores a returned top-k list (vertex ids, best first)
// against a reference score row: an entry counts as correct when its
// reference score reaches the k-th best reference score outside skip
// (usually the query vertex). The threshold form keeps the metric fair
// under ties — any vertex tied with the boundary is as good as the
// boundary. Returns 1 when k <= 0 or the row has no candidates.
func PrecisionAtK(refRow []float64, skip int, got []int, k int) float64 {
	vals := make([]float64, 0, len(refRow))
	for v, s := range refRow {
		if v != skip {
			vals = append(vals, s)
		}
	}
	if k <= 0 || len(vals) == 0 {
		return 1
	}
	if k > len(vals) {
		k = len(vals)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
	kth := vals[k-1]
	hits := 0
	for i := 0; i < len(got) && i < k; i++ {
		if refRow[got[i]] >= kth-1e-12 {
			hits++
		}
	}
	return float64(hits) / float64(k)
}
