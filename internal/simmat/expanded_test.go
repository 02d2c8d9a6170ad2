package simmat

import (
	"math"
	"math/rand"
	"os"
	"testing"
)

// randomSlots draws a slot map over n vertices in the form the OIP sweeper
// builds: the block vertices numbered 0..m-1 in increasing order, the rest
// -1 or a number at or past m (an indicator slot, not a block row).
func randomSlots(rng *rand.Rand, n int) (slot []int32, m int) {
	slot = make([]int32, n)
	for v := range slot {
		switch rng.Intn(3) {
		case 0:
			slot[v] = -1
		case 1:
			slot[v] = -2 // patched below to an indicator number
		default:
			slot[v] = int32(m)
			m++
		}
	}
	next := int32(m)
	for v, s := range slot {
		if s == -2 {
			slot[v] = next
			next++
		}
	}
	return slot, m
}

// denseExpansion is the definition Expanded must reproduce: block cells
// where both vertices are in the block, diag on the rest of the diagonal,
// +0 everywhere else.
func denseExpansion(slot []int32, block *Matrix, diag float64) *Matrix {
	n, m := len(slot), block.N()
	in := func(s int32) bool { return s >= 0 && int(s) < m }
	out := New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			switch {
			case in(slot[i]) && in(slot[j]):
				out.Set(i, j, block.At(int(slot[i]), int(slot[j])))
			case i == j:
				out.Set(i, j, diag)
			}
		}
	}
	return out
}

// requireSameBits fails unless e reads exactly want through N, At and
// RowInto — bits compared, so a -0 for +0 off the block is a failure —
// with RowInto writing into a dst prefilled with garbage.
func requireSameBits(t *testing.T, want *Matrix, e *Expanded) {
	t.Helper()
	n := want.N()
	if e.N() != n {
		t.Fatalf("N = %d, want %d", e.N(), n)
	}
	row := make([]float64, n+3)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = math.NaN()
		}
		if err := e.RowInto(i, row); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < n; j++ {
			w := math.Float64bits(want.At(i, j))
			if got := math.Float64bits(row[j]); got != w {
				t.Fatalf("RowInto(%d)[%d] = %#x, want %#x", i, j, got, w)
			}
			if got := math.Float64bits(e.At(i, j)); got != w {
				t.Fatalf("At(%d,%d) = %#x, want %#x", i, j, got, w)
			}
		}
	}
}

// TestExpandedMatchesDenseExpansion: over random slot maps (empty and full
// blocks included) and the three outside diagonals the engines use (1 for
// OIP-SR, e^-C for OIP-DSR, 0), Expanded over a dense block and over a
// tiled one reads exactly its dense expansion, and Bytes is the block's
// storage plus four bytes a vertex.
func TestExpandedMatchesDenseExpansion(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(12)
		slot, m := randomSlots(rng, n)
		block := New(m)
		for i := 0; i < m; i++ {
			for j := i; j < m; j++ {
				v := rng.Float64()
				block.Set(i, j, v)
				block.Set(j, i, v)
			}
		}
		for _, diag := range []float64{1, math.Exp(-0.6), 0} {
			want := denseExpansion(slot, block, diag)
			e := Expand(slot, block, diag)
			requireSameBits(t, want, e)
			if got, w := e.Bytes(), block.Bytes()+4*int64(n); got != w {
				t.Fatalf("Bytes = %d, want %d", got, w)
			}
			d, err := e.Dense()
			if err != nil {
				t.Fatal(err)
			}
			if MaxDiff(d, want) != 0 {
				t.Fatal("Dense differs from the expansion")
			}

			store, err := NewTileStore(TileOptions{BlockSize: 1 + rng.Intn(4)})
			if err != nil {
				t.Fatal(err)
			}
			tiled, err := store.NewTiled(m)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < m; i++ {
				if err := tiled.SetRowUpper(i, block.Row(i)); err != nil {
					t.Fatal(err)
				}
			}
			et := Expand(slot, tiled, diag)
			requireSameBits(t, want, et)
			if got, w := et.Bytes(), tiled.Bytes()+4*int64(n); got != w {
				t.Fatalf("tiled Bytes = %d, want %d", got, w)
			}
			if err := et.Close(); err != nil {
				t.Fatal(err)
			}
			if err := e.Close(); err != nil {
				t.Fatalf("dense Close: %v", err)
			}
		}
	}
}

// TestExpandedCloseReleasesTiles: closing an Expanded over a spilling tiled
// block removes the store's spill files.
func TestExpandedCloseReleasesTiles(t *testing.T) {
	dir := t.TempDir()
	store, err := NewTileStore(TileOptions{BlockSize: 2, MaxMemoryBytes: 2 * 2 * 2 * 8, SpillDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tiled, err := store.NewTiled(9)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]float64, 9)
	for i := range row {
		row[i] = 0.5
	}
	slot := make([]int32, 9)
	for i := range slot {
		if err := tiled.SetRowUpper(i, row); err != nil {
			t.Fatal(err)
		}
		slot[i] = int32(i)
	}
	if files, _ := os.ReadDir(dir); len(files) == 0 {
		t.Fatal("nothing spilled: the budget does not force any")
	}
	if err := Expand(slot, tiled, 1).Close(); err != nil {
		t.Fatal(err)
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Errorf("%d spill files survive Close", len(files))
	}
}
