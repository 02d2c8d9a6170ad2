package walkindex

import (
	"bytes"
	"testing"

	"oipsr/graph"
)

// FuzzStreamSliceBoundary fuzzes the streaming encoder's slice-boundary
// path: the budget decides where vertex-range slices cut across 64-vertex
// posting blocks, and wherever the cut lands — mid-block, at a block
// edge, one vertex per slice — the emitted file must stay byte-identical
// to the materialized Save writer, for both full indexes and shard
// ranges. The seed corpus under testdata/fuzz pins the known
// hard geometries (budget 1, cuts at 63/64/65, shard ranges straddling a
// block).
func FuzzStreamSliceBoundary(f *testing.F) {
	// n8, deg, walks, k, budget, seed, lo8, hi8
	f.Add(uint8(65), uint8(3), uint8(4), uint8(3), int64(1), int64(7), uint8(10), uint8(200))
	f.Add(uint8(130), uint8(2), uint8(6), uint8(0), int64(63*24), int64(21), uint8(64), uint8(1))
	f.Add(uint8(200), uint8(3), uint8(8), uint8(5), int64(257), int64(-3), uint8(37), uint8(144))
	f.Add(uint8(1), uint8(0), uint8(1), uint8(1), int64(1), int64(0), uint8(0), uint8(255))
	f.Add(uint8(64), uint8(4), uint8(3), uint8(2), int64(1<<20), int64(99), uint8(0), uint8(64))
	f.Fuzz(func(t *testing.T, n8, deg, walks, k uint8, budget, seed int64, lo8, hi8 uint8) {
		n := int(n8)%200 + 1
		opt := Options{Walks: int(walks)%12 + 1, K: int(k) % 10, Seed: seed}
		if budget < 1 {
			budget = 1 - budget // negative/zero budgets are a rejection test, not this one
		}

		// Deterministic edge soup from the fuzzed seed — splitmix64 keeps the
		// graph a pure function of the input bytes.
		s := splitmix64(uint64(seed) ^ 0x9e3779b97f4a7c15)
		edges := make([][2]int, 0, n*(int(deg)%4))
		for i := 0; i < cap(edges); i++ {
			s = splitmix64(s)
			u := int(s % uint64(n))
			s = splitmix64(s)
			edges = append(edges, [2]int{u, int(s % uint64(n))})
		}
		g := graph.MustFromEdges(n, edges)

		ix, err := buildFull(g, opt)
		if err != nil {
			t.Skip() // invalid option combination; rejection is tested elsewhere
		}
		want := saveBytes(t, ix, IndexFile)
		var got memWriterAt
		st, err := BuildStreaming(g, opt, 0, n, IndexFile, &got, budget)
		if err != nil {
			t.Fatalf("BuildStreaming(n=%d, budget=%d): %v", n, budget, err)
		}
		if !bytes.Equal(got.buf, want) {
			t.Fatalf("streamed index differs from materialized v2 (n=%d budget=%d slice=%d)", n, budget, st.SliceVertices)
		}

		// Shard range derived from the same bytes: lo anywhere, hi at or past
		// it — empty ranges included.
		lo := int(lo8) % (n + 1)
		hi := lo + int(hi8)%(n-lo+1)
		sx, err := Build(g, opt, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		wantS := saveBytes(t, sx, ShardFile)
		var gotS memWriterAt
		if _, err := BuildStreaming(g, opt, lo, hi, ShardFile, &gotS, budget); err != nil {
			t.Fatalf("BuildStreaming([%d,%d), budget=%d): %v", lo, hi, budget, err)
		}
		if !bytes.Equal(gotS.buf, wantS) {
			t.Fatalf("streamed shard [%d,%d) differs from materialized v2 (budget=%d)", lo, hi, budget)
		}
	})
}
