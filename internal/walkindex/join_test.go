package walkindex

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"testing"

	"oipsr/graph"
	"oipsr/graph/gen"
)

// bruteJoin computes the join result the slow way: every pair's estimate
// from the full SingleSource matrix, filtered and ordered exactly as Join
// promises. Join must reproduce it bit for bit — this is the completeness
// proof of the contribution-weight prune.
func bruteJoin(t *testing.T, ix *Index, k int, threshold float64) []JoinPair {
	t.Helper()
	n := ix.N()
	var pairs []JoinPair
	for a := 0; a < n; a++ {
		row := ssRow(t, ix, a)
		for b := a + 1; b < n; b++ {
			if row[b] >= threshold && row[b] > 0 {
				pairs = append(pairs, JoinPair{A: a, B: b, Score: row[b]})
			}
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].Score != pairs[j].Score {
			return pairs[i].Score > pairs[j].Score
		}
		if pairs[i].A != pairs[j].A {
			return pairs[i].A < pairs[j].A
		}
		return pairs[i].B < pairs[j].B
	})
	if k > len(pairs) {
		k = len(pairs)
	}
	return pairs[:k]
}

// TestJoinMatchesBruteForce: top-k joins across thresholds and k sizes
// equal the brute-force oracle exactly, scores included.
func TestJoinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := graph.NewBuilder(70, 0)
	b.EnsureVertices(70)
	for i := 0; i < 260; i++ {
		b.AddEdge(rng.Intn(70), rng.Intn(70))
	}
	g := b.MustBuild()
	ix, err := buildFull(g, Options{Walks: 120, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, threshold := range []float64{0, 0.03, 0.1, 0.3, 0.7} {
		for _, k := range []int{1, 5, 40, 100000} {
			want := bruteJoin(t, ix, k, threshold)
			got, err := ix.Join(context.Background(), nil, k, threshold, 1<<20, 3)
			if err != nil {
				t.Fatalf("Join(k=%d, theta=%g): %v", k, threshold, err)
			}
			if len(got) != len(want) {
				t.Fatalf("Join(k=%d, theta=%g): %d pairs, want %d", k, threshold, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("Join(k=%d, theta=%g) pair %d: %+v, want %+v", k, threshold, i, got[i], want[i])
				}
			}
		}
	}
}

// TestJoinDeterministicAcrossWorkers: the join result is bit-identical for
// every worker count.
func TestJoinDeterministicAcrossWorkers(t *testing.T) {
	g := gen.CoauthorGraph(120, 4, 7)
	ix, err := buildFull(g, Options{Walks: 80, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := ix.Join(context.Background(), nil, 25, 0.05, 1<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		par, err := ix.Join(context.Background(), nil, 25, 0.05, 1<<20, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(par) != len(serial) {
			t.Fatalf("workers=%d: %d pairs vs %d serial", workers, len(par), len(serial))
		}
		for i := range serial {
			if par[i] != serial[i] {
				t.Fatalf("workers=%d pair %d: %+v vs serial %+v", workers, i, par[i], serial[i])
			}
		}
	}
}

// TestJoinThresholdAboveC: no pair can score above C, so a threshold past
// it returns empty without scanning.
func TestJoinThresholdAboveC(t *testing.T) {
	g := gen.WebGraph(50, 5, 3)
	ix, err := buildFull(g, Options{C: 0.6, Walks: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix.Join(context.Background(), nil, 10, 0.9, 1<<20, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("Join above C returned %d pairs, want 0", len(got))
	}
}

// TestJoinTooDense: a tiny candidate cap trips ErrTooDense instead of
// unbounded memory growth.
func TestJoinTooDense(t *testing.T) {
	g := gen.WebGraph(200, 8, 5)
	ix, err := buildFull(g, Options{Walks: 50, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Join(context.Background(), nil, 10, 0, 5, 2); !errors.Is(err, ErrTooDense) {
		t.Fatalf("Join with cap 5 returned %v, want ErrTooDense", err)
	}
}

// TestJoinValidation: bad arguments are rejected up front.
func TestJoinValidation(t *testing.T) {
	g := gen.WebGraph(20, 4, 1)
	ix, err := buildFull(g, Options{Walks: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct {
		k    int
		th   float64
		cap_ int
	}{
		{0, 0.1, 100},
		{5, -0.1, 100},
		{5, 1.5, 100},
		{5, 0.1, 0},
	} {
		if _, err := ix.Join(context.Background(), nil, bad.k, bad.th, bad.cap_, 1); err == nil {
			t.Errorf("Join(%d, %g, cap %d) succeeded, want error", bad.k, bad.th, bad.cap_)
		}
	}
}
