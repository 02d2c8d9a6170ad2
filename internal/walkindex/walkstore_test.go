package walkindex

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"oipsr/graph"
	"oipsr/graph/gen"
)

// denseStore is the trivially correct model of the resident store: one
// flat r·k block per vertex, -1 from each walk's death onward — the layout
// every resident index had before the ragged store replaced it.
type denseStore struct {
	paths []int32
	k     int
	r     int
}

func newDenseStore(paths []int32, r, k int) *denseStore {
	return &denseStore{paths: paths, r: r, k: k}
}

func (s *denseStore) block(v int) []int32 { return s.paths[v*s.r*s.k : (v+1)*s.r*s.k] }
func (s *denseStore) row(v int) walkRow   { return walkRow{data: s.block(v), k: s.k} }
func (s *denseStore) rewrite(v int, fps []int, fix func(j int, path []int32)) {
	for j, fp := range fps {
		fix(j, s.block(v)[fp*s.k:(fp+1)*s.k])
	}
}
func (s *denseStore) Rows() int { return len(s.paths) / (s.r * s.k) }

// raggedModelBytes is Bytes of a ragged store holding the model's walks,
// counted from the walks alone: 8 bytes per (vertex, group) offset, and
// per group with a live walk ⌈G/2⌉ header words plus its live entries.
func raggedModelBytes(m *denseStore, group int) int64 {
	groups := (m.r + group - 1) / group
	bytes := 8 * int64(m.Rows()*groups)
	for v := 0; v < m.Rows(); v++ {
		for g := 0; g < groups; g++ {
			bytes += 4 * int64(modelSegWords(m, v, g, group))
		}
	}
	return bytes
}

// modelSegWords is the length of group g's segment of vertex v: 0 when
// every walk of it is dead.
func modelSegWords(m *denseStore, v, g, group int) int {
	live := 0
	for fp := g * group; fp < min((g+1)*group, m.r); fp++ {
		live += len(livePrefix(m.row(v).walk(fp)))
	}
	if live == 0 {
		return 0
	}
	return (group+1)/2 + live
}

// modelWalks fills an r·k block the way walkFrom does: each walk a live
// prefix of random positions, -1 after it. A third of the vertices are
// all dead (an empty in-set), and the lengths favour 0 and k.
func modelWalks(next func(int) int, r, k int, block []int32) {
	allDead := next(3) == 0
	for fp := 0; fp < r; fp++ {
		live := 0
		switch next(4) {
		case 0:
		case 1:
			live = k
		default:
			live = next(k + 1)
		}
		if allDead {
			live = 0
		}
		for t := 0; t < k; t++ {
			block[fp*k+t] = -1
			if t < live {
				block[fp*k+t] = int32(next(50))
			}
		}
	}
}

// requireModel checks every accessor of s against the dense model, and
// that no walk view can be appended into its neighbour.
func requireModel(t *testing.T, s *raggedStore, m *denseStore, dead int, when string) {
	t.Helper()
	if s.Rows() != m.Rows() {
		t.Fatalf("%s: Rows %d; the model has %d rows", when, s.Rows(), m.Rows())
	}
	for v := 0; v < m.Rows(); v++ {
		row := s.row(v)
		for fp := 0; fp < m.r; fp++ {
			got, want := row.walk(fp), livePrefix(m.row(v).walk(fp))
			if !slices.Equal(got, want) || cap(got) != len(got) {
				t.Fatalf("%s: walk (%d, %d) = %v (cap %d), the model says %v", when, v, fp, got, cap(got), want)
			}
		}
	}
	if s.dead != dead {
		t.Fatalf("%s: %d dead words, the model says %d", when, s.dead, dead)
	}
	if want := raggedModelBytes(m, s.group) + 4*int64(dead); s.Bytes() != want {
		t.Fatalf("%s: Bytes = %d, the model says %d", when, s.Bytes(), want)
	}
}

// runStoreModel drives one ragged store and its dense model through the
// same construction and repairs. next(n) is the randomness, in [0, n).
func runStoreModel(t *testing.T, next func(int) int, r, k, rows, repairs int) {
	m := newDenseStore(make([]int32, rows*r*k), r, k)
	for v := 0; v < rows; v++ {
		modelWalks(next, r, k, m.block(v))
	}

	// Build in random parts, joined as Build joins its workers' parts; the
	// blocks and parts must come out of it unchanged.
	var parts []*raggedStore
	for v := 0; v < rows; {
		part := newRaggedStore(r, k)
		for end := min(rows, v+1+next(4)); v < end; v++ {
			block := slices.Clone(m.block(v))
			part.appendVertex(block)
			if !slices.Equal(block, m.block(v)) {
				t.Fatalf("appendVertex(%d) changed its block", v)
			}
		}
		parts = append(parts, part)
	}
	clones := make([]raggedStore, len(parts))
	for i, p := range parts {
		clones[i] = raggedStore{seg: slices.Clone(p.seg), data: slices.Clone(p.data)}
	}
	s := joinStores(r, k, parts)
	for i, p := range parts {
		if !slices.Equal(p.seg, clones[i].seg) || !slices.Equal(p.data, clones[i].data) {
			t.Fatalf("joinStores changed part %d", i)
		}
	}
	if len(s.data) != cap(s.data) || len(s.seg) != cap(s.seg) {
		t.Fatal("joinStores left slack in its arrays")
	}
	requireModel(t, s, m, 0, "built")

	dead, fresh := 0, true // fresh: laid out as a build of the same walks
	for op := 0; op < repairs && rows > 0; op++ {
		v := next(rows)
		var fps []int
		for fp := 0; fp < r; fp++ {
			if next(r) < 2 {
				fps = append(fps, fp)
			}
		}
		if len(fps) == 0 {
			fps = []int{next(r)}
		}
		paths := make([]int32, len(fps)*k)
		block := make([]int32, r*k)
		modelWalks(next, r, k, block)
		for j, fp := range fps {
			copy(paths[j*k:(j+1)*k], block[fp*k:(fp+1)*k])
		}

		// The model's arena: a touched group whose live lengths change is
		// written afresh and its old segment dies; past half the words,
		// compaction drops them all.
		for g := 0; g < s.groups; g++ {
			lo, hi := s.span(g)
			moved := false
			for j, fp := range fps {
				if fp >= lo && fp < hi {
					moved = moved || len(livePrefix(paths[j*k:(j+1)*k])) != len(livePrefix(m.row(v).walk(fp)))
				}
			}
			if moved {
				dead += modelSegWords(m, v, g, s.group)
				fresh = false
			}
		}
		fpsIn, pathsIn := slices.Clone(fps), slices.Clone(paths)
		s.rewrite(v, fps, func(j int, path []int32) {
			if !slices.Equal(path, m.row(v).walk(fps[j])) {
				t.Fatalf("repair %d: walk (%d, %d) handed out as %v, the model holds %v", op, v, fps[j], path, m.row(v).walk(fps[j]))
			}
			copy(path, paths[j*k:(j+1)*k])
		})
		m.rewrite(v, fps, func(j int, path []int32) { copy(path, paths[j*k:(j+1)*k]) })
		if !slices.Equal(fps, fpsIn) || !slices.Equal(paths, pathsIn) {
			t.Fatalf("repair %d changed its inputs", op)
		}
		words := int(raggedModelBytes(m, s.group)-8*int64(len(s.seg)))/4 + dead
		if 2*dead > words {
			dead, fresh = 0, true
		}
		requireModel(t, s, m, dead, "repaired")
		if fresh {
			// Compacted, or repaired in place only: the layout is the one
			// a fresh build has, word for word.
			built := joinStores(r, k, []*raggedStore{buildRagged(m)})
			if !slices.Equal(s.seg, built.seg) || !slices.Equal(s.data, built.data) {
				t.Fatalf("repair %d: the store differs from a fresh build of its walks", op)
			}
		}
	}
}

// buildRagged appends every row of the model to a new ragged store.
func buildRagged(m *denseStore) *raggedStore {
	s := newRaggedStore(m.r, m.k)
	for v := 0; v < m.Rows(); v++ {
		s.appendVertex(m.block(v))
	}
	return s
}

// storeShapes are the (R, K) corners: one walk, a horizon of one, the
// serving shape, and R·K ≥ 2¹⁶, where a vertex splits into several groups.
var storeShapes = [][2]int{{1, 1}, {1, 6}, {7, 1}, {5, 13}, {100, 13}, {40, 2000}, {3, 40000}}

// TestRaggedStoreModel: the ragged store against the dense layout, over
// seeded random walks and repairs, for every shape.
func TestRaggedStoreModel(t *testing.T) {
	for _, shape := range storeShapes {
		r, k := shape[0], shape[1]
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			rows := 1 + rng.Intn(12)
			if r*k > 1<<16 {
				rows = 1 + rng.Intn(3)
			}
			runStoreModel(t, rng.Intn, r, k, rows, 40)
		}
	}
	if s := newRaggedStore(40, 2000); s.group != 32 || s.groups != 2 {
		t.Fatalf("R=40, K=2000: %d groups of %d walks, want 2 of 32", s.groups, s.group)
	}
}

// FuzzRaggedStore: the same model check with the fuzzer choosing the
// shape, the walks and the repairs.
func FuzzRaggedStore(f *testing.F) {
	f.Add([]byte{0, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{4, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{5, 7, 1, 1, 1, 1, 2, 2, 2, 3, 3, 3, 0, 1, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 512 {
			t.Skip()
		}
		shape := storeShapes[int(data[0])%len(storeShapes)]
		rows := 1 + int(data[1])%8
		data = data[2:]
		next := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b % n
		}
		runStoreModel(t, next, shape[0], shape[1], rows, 24)
	})
}

// TestRaggedIndexMatchesDenseModel: an index repaired through edit
// batches holds, row for row, the dense rows a fresh walk of the edited
// graph gives; its Bytes are the ragged layout of those rows plus the dead
// arena words; and Save writes what the padded model encoder makes of them.
func TestRaggedIndexMatchesDenseModel(t *testing.T) {
	g := gen.WebGraph(120, 4, 9)
	opt := Options{Walks: 30, Seed: 4}
	ix, err := buildFull(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	compare := func(when string, g *graph.Graph) {
		t.Helper()
		m := newDenseStore(make([]int32, ix.n*ix.r*ix.k), ix.r, ix.k)
		for v := 0; v < ix.n; v++ {
			walkBlock(g, splitmix64(uint64(opt.Seed)), v, ix.k, m.block(v))
			if !slices.Equal(ix.denseRow(v, nil), m.block(v)) {
				t.Fatalf("%s: row %d differs from the dense model", when, v)
			}
		}
		if want := raggedModelBytes(m, ix.store.group) + 4*int64(ix.store.dead); ix.Bytes() != want {
			t.Fatalf("%s: Bytes = %d, the model's count is %d", when, ix.Bytes(), want)
		}
		requireBlocksMatchModel(t, m.paths, ix.r, ix.k, v2BlockVertices, when)
		fresh := buildRagged(m)
		var want bytes.Buffer
		if err := newIndex(ix.n, 0, ix.n, ix.k, ix.r, ix.c, ix.seed, fresh).Save(&want, IndexFile); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saveBytes(t, ix, IndexFile), want.Bytes()) {
			t.Fatalf("%s: Save differs from the model's", when)
		}
	}
	compare("built", g)
	for round := 0; round < 4; round++ {
		// Close cycles onto in-degree-0 vertices, so dead walks come alive
		// and groups outgrow their segments.
		var edits []graph.Edit
		for x := round; x < g.NumVertices() && len(edits) < 6; x += 7 {
			if len(g.In(x)) == 0 {
				edits = append(edits, graph.Edit{Op: graph.EditAdd, U: (x * 13) % g.NumVertices(), V: x})
			}
		}
		g2, sum, err := g.ApplyEdits(edits)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ix.Update(g2, sum.DirtyIn, 2); err != nil {
			t.Fatal(err)
		}
		g = g2
		compare("repaired", g)
	}
}
