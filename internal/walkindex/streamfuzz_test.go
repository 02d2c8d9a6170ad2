package walkindex

import (
	"bytes"
	"testing"

	"oipsr/graph"
)

// FuzzStreamSliceBoundary fuzzes streamed = Save across budgets and
// worker counts: the budget decides how many whole posting blocks a slice
// holds, the seed how many workers split each slice, and whatever they
// come to — one block per slice, a slice past the graph's end — the
// streamed file must stay byte-identical to the materialized Save
// writer's. The seed corpus under testdata/fuzz pins the known hard
// geometries (budget 1, widths of 63/64/65 vertices).
func FuzzStreamSliceBoundary(f *testing.F) {
	// n8, deg, walks, k, budget, seed
	f.Add(uint8(65), uint8(3), uint8(4), uint8(3), int64(1), int64(7))
	f.Add(uint8(130), uint8(2), uint8(6), uint8(0), int64(63*24), int64(21))
	f.Add(uint8(200), uint8(3), uint8(8), uint8(5), int64(257), int64(-3))
	f.Add(uint8(1), uint8(0), uint8(1), uint8(1), int64(1), int64(0))
	f.Add(uint8(64), uint8(4), uint8(3), uint8(2), int64(1<<20), int64(99))
	f.Fuzz(func(t *testing.T, n8, deg, walks, k uint8, budget, seed int64) {
		n := int(n8)%200 + 1
		opt := Options{Walks: int(walks)%12 + 1, K: int(k) % 10, Seed: seed, Workers: int(uint64(seed)%4) + 1}
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
		want := saveBytes(t, ix)
		var got memFile
		st, err := BuildStreaming(g, opt, &got, budget)
		if err != nil {
			t.Fatalf("BuildStreaming(n=%d, budget=%d): %v", n, budget, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("streamed index differs from materialized v2 (n=%d budget=%d slice=%d workers=%d)", n, budget, st.SliceVertices, opt.Workers)
		}
	})
}
