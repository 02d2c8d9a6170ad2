package walkindex

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"oipsr/graph"
	"oipsr/graph/gen"
)

// bruteJoin computes the join result the slow way: every pair's estimate
// from the sweep model's full matrix, filtered and ordered exactly as Join
// promises. Join must reproduce it bit for bit — this is the completeness
// proof of the contribution-weight prune.
func bruteJoin(t *testing.T, ix *Index, k int, threshold float64) []JoinPair {
	t.Helper()
	n := ix.N()
	var pairs []JoinPair
	for a := 0; a < n; a++ {
		row := sweepRow(ix, a)
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

// FuzzJoinRange: Join on an index of any vertex range [lo, hi) — the empty
// one included — equals the full range's Join bit for bit, or both fail
// with the same ErrTooDense text; so does the candidate set it scores. A range recomputes from the graph every
// walk it does not store, so a zero-width index over the graph joins
// exactly like the single node: the property the router's join rests on.
func FuzzJoinRange(f *testing.F) {
	f.Add(uint8(40), uint16(160), uint8(30), int64(1), uint8(0), uint8(0), uint8(10), uint8(25), uint16(5000))  // zero width
	f.Add(uint8(40), uint16(160), uint8(30), int64(1), uint8(13), uint8(27), uint8(5), uint8(59), uint16(5000)) // middle range
	f.Add(uint8(40), uint16(160), uint8(30), int64(2), uint8(0), uint8(41), uint8(0), uint8(59), uint16(5000))  // full range, θ = 0
	f.Add(uint8(30), uint16(200), uint8(12), int64(3), uint8(30), uint8(30), uint8(0), uint8(10), uint16(3))    // too dense
	f.Add(uint8(1), uint16(0), uint8(1), int64(4), uint8(0), uint8(1), uint8(0), uint8(1), uint16(1))           // one vertex
	f.Add(uint8(25), uint16(70), uint8(8), int64(5), uint8(24), uint8(3), uint8(100), uint8(4), uint16(100))    // θ = 1, reversed range
	f.Fuzz(func(t *testing.T, n uint8, edges uint16, walks uint8, seed int64, lo, hi, theta, k uint8, maxCand uint16) {
		nv := 1 + int(n)%60
		rng := rand.New(rand.NewSource(seed))
		b := graph.NewBuilder(nv, 0)
		b.EnsureVertices(nv)
		for i := 0; i < int(edges)%(5*nv+1); i++ {
			b.AddEdge(rng.Intn(nv), rng.Intn(nv))
		}
		g := b.MustBuild()
		opt := Options{Walks: 1 + int(walks)%40, Seed: seed}
		l, h := int(lo)%(nv+1), int(hi)%(nv+1)
		if l > h {
			l, h = h, l
		}
		threshold, topK, capN := float64(theta%101)/100, 1+int(k)%60, 1+int(maxCand)%3000

		full, err := buildFull(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		part, err := Build(g, opt, l, h)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		wantKeys, wantErr := full.joinCandidates(ctx, nil, threshold, capN, 2)
		gotKeys, gotErr := part.joinCandidates(ctx, g, threshold, capN, 1)
		if !slices.Equal(gotKeys, wantKeys) || (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("[%d,%d) of %d: %d candidates (%v), the full range's %d (%v)", l, h, nv, len(gotKeys), gotErr, len(wantKeys), wantErr)
		}
		want, wantErr := full.Join(ctx, nil, topK, threshold, capN, 2)
		got, gotErr := part.Join(ctx, g, topK, threshold, capN, 1+int(seed&3))
		switch {
		case wantErr != nil || gotErr != nil:
			if !errors.Is(wantErr, ErrTooDense) || gotErr == nil || gotErr.Error() != wantErr.Error() {
				t.Fatalf("[%d,%d) of %d: error %v, the full range's %v", l, h, nv, gotErr, wantErr)
			}
		case len(got) != len(want):
			t.Fatalf("[%d,%d) of %d: %d pairs, the full range's %d", l, h, nv, len(got), len(want))
		default:
			for i := range want {
				if got[i] != want[i] || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
					t.Fatalf("[%d,%d) of %d: pair %d is %+v, the full range's %+v", l, h, nv, i, got[i], want[i])
				}
			}
		}
	})
}
