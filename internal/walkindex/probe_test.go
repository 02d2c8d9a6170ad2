package walkindex

import (
	"math/rand"
	"testing"

	"oipsr/graph"
	"oipsr/graph/gen"
)

// scanFirstDirty is the brute-force oracle for probe: it reads every stored
// walk of ix and maps each one that stands on a dirty vertex before the
// horizon to the first such time (0 is the start vertex, t the position
// after step t).
func scanFirstDirty(ix *Index, dirty []int) map[int32]int {
	isDirty := map[int]bool{}
	for _, d := range dirty {
		isDirty[d] = true
	}
	found := map[int32]int{}
	for v := ix.lo; v < ix.hi; v++ {
		for fp := 0; fp < ix.r; fp++ {
			pos := append([]int32{int32(v)}, ix.Walk(nil, v, fp)...)
			for t := 0; t < ix.k && t < len(pos); t++ {
				if isDirty[int(pos[t])] {
					found[int32((v-ix.lo)*ix.r+fp)] = t
					break
				}
			}
		}
	}
	return found
}

// probeFirstDirty is what repair acts on: the probe's walks on the edited
// graph g2, each with the first dirty time repair replays it from.
func probeFirstDirty(t testing.TB, ix *Index, g2 *graph.Graph, dirty []int) map[int32]int {
	t.Helper()
	d, isDirty := dirtySet(ix.n, dirty)
	walks, _ := ix.probe(g2, d, isDirty)
	got := map[int32]int{}
	for i, w := range walks {
		if i > 0 && walks[i-1] >= w {
			t.Fatalf("probe walks not strictly ascending at %d: %d then %d", i, walks[i-1], w)
		}
		v := int(w) / ix.r
		got[w] = firstDirty(ix.lo+v, ix.path(int32(v), int(w)%ix.r), ix.k, isDirty)
	}
	return got
}

// requireProbeMatchesScan applies edits to g, checks the probe of the range
// [lo, hi) index built on g against the scan for the dirty set the edits
// leave plus extra, then repairs the index and checks it against a rebuild.
// It returns the scanned set.
func requireProbeMatchesScan(t testing.TB, g *graph.Graph, opt Options, lo, hi int, edits []graph.Edit, extra []int) map[int32]int {
	t.Helper()
	ix, err := Build(g, opt, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	g2, sum, err := g.ApplyEdits(edits)
	if err != nil {
		t.Fatal(err)
	}
	dirty := append(append([]int{}, sum.DirtyIn...), extra...)
	want := scanFirstDirty(ix, dirty)
	got := probeFirstDirty(t, ix, g2, dirty)
	if len(got) != len(want) {
		t.Fatalf("probe found %d walks, the scan %d", len(got), len(want))
	}
	for w, tw := range want {
		if tg, ok := got[w]; !ok || tg != tw {
			t.Fatalf("walk %d: probe (%d, found %v), scan %d", w, tg, ok, tw)
		}
	}
	if _, err := ix.Update(g2, dirty, 2); err != nil {
		t.Fatal(err)
	}
	fresh, err := Build(g2, opt, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if !ix.Equal(fresh) {
		t.Fatal("repaired index differs from a rebuild")
	}
	return want
}

// TestProbeMatchesScan: the backward probe finds exactly the walks that
// stand on a dirty vertex before the horizon, with the scan's first dirty
// times, on the shapes where an expansion rule could go wrong.
func TestProbeMatchesScan(t *testing.T) {
	// chain: v -> v+1, so a walk steps down to vertex 0, which has no
	// in-edge, and dies there.
	var chain [][2]int
	for v := 0; v+1 < 12; v++ {
		chain = append(chain, [2]int{v, v + 1})
	}
	// hub: vertex 0 points at every other vertex, which points back at 0
	// and at its successor, so 0 is in every in-list and every walk
	// reaches it.
	const hubN = 300
	var hub [][2]int
	for v := 1; v < hubN; v++ {
		hub = append(hub, [2]int{0, v}, [2]int{v, 0}, [2]int{v, v%(hubN-1) + 1})
	}
	// loops: a ring in which every vertex also points at itself.
	var loops [][2]int
	for v := 0; v < 9; v++ {
		loops = append(loops, [2]int{v, v}, [2]int{v, (v + 1) % 9})
	}
	er := gen.ErdosRenyi(70, 260, 5)
	rng := rand.New(rand.NewSource(3))

	for _, c := range []struct {
		name   string
		g      *graph.Graph
		opt    Options
		lo, hi int
		edits  []graph.Edit
		extra  []int
		// shows must find what the case is about in the scanned set.
		shows func(ix *Index, want map[int32]int) bool
	}{
		{
			name:  "duplicate-and-unchanged-dirty",
			g:     er,
			opt:   Options{Walks: 12, K: 6, Seed: 4},
			hi:    70,
			edits: randomEdits(rng, er, 6),
			extra: []int{3, 3, 17, 40, 40, 69},
			shows: func(_ *Index, want map[int32]int) bool { return len(want) > 0 },
		},
		{
			name:  "dirty-start",
			g:     er,
			opt:   Options{Walks: 8, K: 5, Seed: 9},
			hi:    70,
			edits: []graph.Edit{{Op: graph.EditAdd, U: 1, V: 2}},
			shows: func(ix *Index, want map[int32]int) bool {
				t, ok := want[int32(2*ix.r)] // vertex 2's fingerprint-0 walk
				return ok && t == 0
			},
		},
		{
			name:  "dies-on-dirty",
			g:     graph.MustFromEdges(12, chain),
			opt:   Options{Walks: 5, K: 8, Seed: 2},
			hi:    12,
			edits: []graph.Edit{{Op: graph.EditAdd, U: 11, V: 0}},
			shows: func(ix *Index, want map[int32]int) bool {
				return want[int32(5*ix.r)] == 5 // 5 -> 4 -> … -> 0, dead after
			},
		},
		{
			name:  "self-loops",
			g:     graph.MustFromEdges(9, loops),
			opt:   Options{Walks: 10, K: 7, Seed: 6},
			hi:    9,
			edits: []graph.Edit{{Op: graph.EditRemove, U: 4, V: 4}, {Op: graph.EditAdd, U: 7, V: 2}},
			shows: func(_ *Index, want map[int32]int) bool { return len(want) > 0 },
		},
		{
			name:  "dirty-hub",
			g:     graph.MustFromEdges(hubN, hub),
			opt:   Options{Walks: 6, K: 9, Seed: 1},
			hi:    hubN,
			edits: []graph.Edit{{Op: graph.EditRemove, U: 7, V: 0}, {Op: graph.EditAdd, U: 0, V: 0}},
			shows: func(ix *Index, want map[int32]int) bool { return len(want) > hubN*ix.r/2 },
		},
		{
			name:  "shard-range",
			g:     er,
			opt:   Options{Walks: 12, K: 6, Seed: 4},
			lo:    23,
			hi:    51,
			edits: append(randomEdits(rng, er, 5), graph.Edit{Op: graph.EditAdd, U: 60, V: 5}),
			extra: []int{5},
			shows: func(_ *Index, want map[int32]int) bool { return len(want) > 0 },
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			want := requireProbeMatchesScan(t, c.g, c.opt, c.lo, c.hi, c.edits, c.extra)
			ix, err := Build(c.g, c.opt, c.lo, c.hi)
			if err != nil {
				t.Fatal(err)
			}
			if !c.shows(ix, want) {
				t.Fatalf("the case does not exercise what it is named for (%d walks found)", len(want))
			}
		})
	}
}

// FuzzProbe: on any small graph and edit batch the probe equals the scan,
// on the full range and on an interior one, with every dirty vertex listed
// twice and one more vertex, changed or not, listed besides.
func FuzzProbe(f *testing.F) {
	f.Add([]byte{6, 3, 2, 1, 0, 1, 1, 2, 2, 0, 3, 1, 4, 2, 5, 4})                    // the FuzzLoad seed graph
	f.Add([]byte{1, 2, 2, 9, 0, 0})                                                  // n=1 self-loop
	f.Add([]byte{7, 6, 4, 3, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 0, 0, 3, 6, 0})  // ring: walks revisit vertices; edits cut it
	f.Add([]byte{9, 0, 4, 5, 0, 1, 0, 2, 0, 3, 0, 4, 5, 6, 6, 7, 7, 8, 1, 0, 8, 5})  // K=1 star + chain
	f.Add([]byte{19, 5, 4, 2, 3, 1, 3, 2, 3, 4, 1, 5, 2, 5, 9, 9, 4, 3, 3, 1, 9, 9}) // in-degree-0 hubs, self-loop edit
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			t.Skip("keep graphs small")
		}
		g, opt, edits := forestFuzzGraph(data)
		n := g.NumVertices()
		_, sum, err := g.ApplyEdits(edits)
		if err != nil {
			t.Fatal(err)
		}
		extra := append(append([]int{}, sum.DirtyIn...), int(opt.Seed)%n)
		for _, r := range [][2]int{{0, n}, {n / 3, n - n/4}} {
			requireProbeMatchesScan(t, g, opt, r[0], r[1], edits, extra)
		}
	})
}

// BenchmarkUpdate times Update on the mapped-edits shape — a citation graph
// of 15000 vertices, 100 walks a vertex, 8-edit batches, one worker — one
// batch per op, the edit application untimed. It reports the walks
// repaired and the coupled moves the probe hashed per batch, and the worst
// batch's hash checks.
func BenchmarkUpdate(b *testing.B) {
	b.StopTimer()
	g := gen.CitationGraph(15000, 4, 1)
	ix, err := buildFull(g, Options{Walks: 100, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var repaired, checks, worst int
	for i := 0; i < b.N; i++ {
		next, sum, err := g.ApplyEdits(editBatch(rng, g, 8))
		if err != nil {
			b.Fatal(err)
		}
		g = next
		d, isDirty := dirtySet(ix.n, sum.DirtyIn)
		_, c := ix.probe(g, d, isDirty)
		checks += c
		worst = max(worst, c)
		b.StartTimer()
		w, err := ix.Update(g, sum.DirtyIn, 1)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		repaired += w
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/op")
	b.ReportMetric(float64(repaired)/float64(b.N), "walks_repaired/op")
	b.ReportMetric(float64(checks)/float64(b.N), "probe_checks/op")
	b.ReportMetric(float64(worst), "worst_probe_checks")
}
