package walkindex

import (
	"bytes"
	"hash/crc32"
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

// lives returns the live length of each of vertex v's walks, what a
// producer of walks hands appendVertex and fillChunk.
func (s *denseStore) lives(v int) []int {
	out := make([]int, s.r)
	for fp := range out {
		out[fp] = len(livePrefix(s.row(v).walk(fp)))
	}
	return out
}

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

// requireModel checks every accessor of s against the dense model, each
// chunk's dead words against dead, and that no walk view can be appended
// into its neighbour.
func requireModel(t *testing.T, s *raggedStore, m *denseStore, dead []int, when string) {
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
	if !slices.Equal(s.dead, dead) {
		t.Fatalf("%s: dead words per chunk %v, the model says %v", when, s.dead, dead)
	}
	total := 0
	for _, d := range dead {
		total += d
	}
	if want := raggedModelBytes(m, s.group) + 4*int64(total); s.Bytes() != want {
		t.Fatalf("%s: Bytes = %d, the model says %d", when, s.Bytes(), want)
	}
}

// requireSameLayout fails unless chunk c of s holds, word for word, what
// chunk c of want holds, with the same offsets.
func requireSameLayout(t *testing.T, s, want *raggedStore, c int, when string) {
	t.Helper()
	lo, hi := s.chunkSpan(c)
	if !slices.Equal(s.chunks[c], want.chunks[c]) || !slices.Equal(s.seg[lo*s.groups:hi*s.groups], want.seg[lo*s.groups:hi*s.groups]) {
		t.Fatalf("%s: chunk %d differs from a fresh build of its walks", when, c)
	}
}

// runStoreModel drives one ragged store, in chunks of 1<<shift vertices,
// and its dense model through the same construction and repairs, and
// returns how many chunks the repairs compacted. next(n) is the
// randomness, in [0, n).
func runStoreModel(t *testing.T, next func(int) int, r, k, shift, rows, repairs int) (compactions int) {
	m := newDenseStore(make([]int32, rows*r*k), r, k)
	for v := 0; v < rows; v++ {
		modelWalks(next, r, k, m.block(v))
	}

	// Build's path and the reader's must lay the walks out alike, each
	// chunk exactly sized, and leave the blocks they read as they were.
	s := buildRagged(m, shift)
	read := newRaggedStore(r, k, shift, rows)
	for c := range read.chunks {
		lo, hi := read.chunkSpan(c)
		block := slices.Clone(m.paths[lo*r*k : hi*r*k])
		var lives []int
		for v := lo; v < hi; v++ {
			lives = append(lives, m.lives(v)...)
		}
		read.fillChunk(c, block, lives)
		if !slices.Equal(block, m.paths[lo*r*k:hi*r*k]) {
			t.Fatalf("fillChunk(%d) changed its block", c)
		}
	}
	for c := range s.chunks {
		requireSameLayout(t, read, s, c, "read")
		if len(s.chunks[c]) != cap(s.chunks[c]) || len(read.chunks[c]) != cap(read.chunks[c]) {
			t.Fatalf("chunk %d has slack: len %d, cap %d built, %d read", c, len(s.chunks[c]), cap(s.chunks[c]), cap(read.chunks[c]))
		}
	}
	dead := make([]int, len(s.chunks))
	requireModel(t, s, m, dead, "built")
	built := buildRagged(m, shift) // chunks rebuilt after each repair

	fresh := make([]bool, len(s.chunks)) // laid out as a build of the same walks
	for c := range fresh {
		fresh[c] = true
	}
	for op := 0; op < repairs && rows > 0; op++ {
		// Half the repairs land near the end, in the last chunk, which is
		// partial unless rows is a multiple of the chunk: enough of them
		// that its arena fills and compacts.
		v := next(rows)
		if next(2) == 0 {
			v = rows - 1 - next(min(rows, 6))
		}
		c := v >> shift
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

		// The model's arena: a touched group whose live lengths change goes
		// over its old segment when the new one is no longer, and the
		// difference dies; otherwise it goes to its chunk's tail and the
		// whole old segment dies. Past half the chunk's words, compaction
		// drops every dead word.
		for g := 0; g < s.groups; g++ {
			lo, hi := s.span(g)
			moved, live := false, 0
			for fp := lo; fp < hi; fp++ {
				l := len(livePrefix(m.row(v).walk(fp)))
				if j := slices.Index(fps, fp); j >= 0 {
					nl := len(livePrefix(paths[j*k : (j+1)*k]))
					moved, l = moved || nl != l, nl
				}
				live += l
			}
			if !moved {
				continue
			}
			was, now := modelSegWords(m, v, g, s.group), 0
			if live > 0 {
				now = (s.group+1)/2 + live
			}
			if now <= was {
				dead[c] += was - now
			} else {
				dead[c] += was
			}
			// Only a segment written over one of its own length keeps the
			// layout a fresh build has.
			fresh[c] = fresh[c] && now == was
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
		words := dead[c]
		lo, hi := s.chunkSpan(c)
		for u := lo; u < hi; u++ {
			for g := 0; g < s.groups; g++ {
				words += modelSegWords(m, u, g, s.group)
			}
		}
		if 2*dead[c] > words {
			dead[c], fresh[c] = 0, true
			compactions++
		}
		requireModel(t, s, m, dead, "repaired")
		// A chunk compacted, or repaired only in place or over segments of
		// the same length, has the layout a fresh build has, word for
		// word; no other chunk changed.
		if fresh[c] {
			buildChunk(built, m, c, nil)
			requireSameLayout(t, s, built, c, "repaired")
		}
	}
	return compactions
}

// buildRagged stores every row of the model in a new ragged store with
// chunks of 1<<shift vertices, as Build does.
func buildRagged(m *denseStore, shift int) *raggedStore {
	s := newRaggedStore(m.r, m.k, shift, m.Rows())
	var data []int32
	for c := range s.chunks {
		data = buildChunk(s, m, c, data)
	}
	return s
}

// buildChunk stores chunk c of s from the model as Build does — its
// vertices appended to scratch, which it returns for reuse, then copied
// out — and checks that appendVertex leaves its blocks as they were.
func buildChunk(s *raggedStore, m *denseStore, c int, scratch []int32) []int32 {
	scratch = scratch[:0]
	lo, hi := s.chunkSpan(c)
	for v := lo; v < hi; v++ {
		block := slices.Clone(m.block(v))
		scratch = s.appendVertex(scratch, v, block, m.lives(v))
		if !slices.Equal(block, m.block(v)) {
			panic("appendVertex changed its block")
		}
	}
	s.setChunk(c, scratch)
	return scratch
}

// storeShapes are the (R, K) corners: one walk, a horizon of one, the
// serving shape, and R·K ≥ 2¹⁶, where a vertex splits into several groups.
var storeShapes = [][2]int{{1, 1}, {1, 6}, {7, 1}, {5, 13}, {100, 13}, {40, 2000}, {3, 40000}}

// TestRaggedStoreModel: the ragged store against the dense layout, over
// seeded random walks and repairs, for every shape. Seeds 1–2 store a
// dozen rows or fewer; seeds 3–4 store three posting blocks, the last one
// partial, in Build's chunks; seeds 5–6 store them in the smaller chunks
// a file of another block size loads into.
func TestRaggedStoreModel(t *testing.T) {
	compactions := 0
	for _, shape := range storeShapes {
		r, k := shape[0], shape[1]
		for seed := int64(1); seed <= 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			rows, shift, repairs := 1+rng.Intn(12), v2BlockShift, 200
			if seed >= 3 {
				rows = 2*v2BlockVertices + 1 + rng.Intn(v2BlockVertices-1)
			}
			if seed >= 5 {
				shift = int(seed) - 5 + 2*rng.Intn(2)
			}
			if r*k > 1<<16 {
				rows, repairs = 1+rng.Intn(3), 40
			}
			n := runStoreModel(t, rng.Intn, r, k, shift, rows, repairs)
			if seed >= 3 {
				compactions += n
			}
		}
	}
	if compactions == 0 {
		t.Fatal("no repair compacted a chunk of a store of several blocks")
	}
	if s := newRaggedStore(40, 2000, v2BlockShift, 0); s.group != 32 || s.groups != 2 {
		t.Fatalf("R=40, K=2000: %d groups of %d walks, want 2 of 32", s.groups, s.group)
	}
}

// FuzzRaggedStore: the same model check with the fuzzer choosing the
// shape, the chunk size, up to 200 rows, the walks and the repairs; once
// its bytes run out, a generator seeded by them goes on.
func FuzzRaggedStore(f *testing.F) {
	f.Add([]byte{0, 3, 6, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{4, 0, 6, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{5, 7, 2, 1, 1, 1, 1, 2, 2, 2, 3, 3, 3, 0, 1, 0, 1})
	f.Add([]byte{3, 160, 6, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	// R = 5, K = 13, one all-dead vertex (seg −1), whose walk 2 comes alive
	// to the horizon between four walks that stay dead: the splice must
	// not read the absent old segment.
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 4, 4, 0, 4, 4, 1, 0, 0, 1,
		1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 || len(data) > 512 {
			t.Skip()
		}
		shape := storeShapes[int(data[0])%len(storeShapes)]
		rows, shift := 1+int(data[1])%200, int(data[2])%(v2BlockShift+1)
		if shape[0]*shape[1] > 1<<16 {
			rows = 1 + rows%3
		}
		rng := rand.New(rand.NewSource(int64(crc32.ChecksumIEEE(data))))
		data = data[3:]
		next := func(n int) int {
			if len(data) == 0 {
				return rng.Intn(n)
			}
			b := int(data[0])
			data = data[1:]
			return b % n
		}
		runStoreModel(t, next, shape[0], shape[1], shift, rows, 24)
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
		dead := 0
		for _, d := range ix.store.dead {
			dead += d
		}
		if want := raggedModelBytes(m, ix.store.group) + 4*int64(dead); ix.Bytes() != want {
			t.Fatalf("%s: Bytes = %d, the model's count is %d", when, ix.Bytes(), want)
		}
		requireBlocksMatchModel(t, m.paths, ix.r, ix.k, v2BlockVertices, when)
		fresh := buildRagged(m, v2BlockShift)
		var want bytes.Buffer
		if err := newIndex(ix.n, 0, ix.n, ix.k, ix.r, ix.c, ix.seed, fresh).Save(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saveBytes(t, ix), want.Bytes()) {
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

// TestRewriteThatFitsAllocatesNothing: once its scratches are warm, a
// store's rewrite of a group whose new segment fits over its old one
// allocates nothing. The two walks swap their live lengths each run, so
// the group is spliced every time, at the same offset, with no dead word.
func TestRewriteThatFitsAllocatesNothing(t *testing.T) {
	const r, k, rows = 100, 13, 64
	m := newDenseStore(make([]int32, rows*r*k), r, k)
	rng := rand.New(rand.NewSource(1))
	for v := 0; v < rows; v++ {
		modelWalks(rng.Intn, r, k, m.block(v))
	}
	s := buildRagged(m, v2BlockShift)
	v, fps, lives := 7, []int{3, 60}, [2]int{5, 3}
	fix := func(j int, path []int32) {
		for t := range path {
			path[t] = -1
			if t < lives[j] {
				path[t] = int32(fps[j] + t)
			}
		}
	}
	swap := func() {
		lives[0], lives[1] = lives[1], lives[0]
		s.rewrite(v, fps, fix)
	}
	swap() // the first run may move the group to the tail and grows the scratches
	at, dead := s.seg[v*s.groups], slices.Clone(s.dead)
	if allocs := testing.AllocsPerRun(100, swap); allocs != 0 {
		t.Fatalf("a rewrite that fits allocates %.1f times a run", allocs)
	}
	if s.seg[v*s.groups] != at || !slices.Equal(s.dead, dead) {
		t.Fatalf("the group moved from %d to %d, or dead words changed from %v to %v", at, s.seg[v*s.groups], dead, s.dead)
	}
	for j, fp := range fps {
		if got := s.row(v).walk(fp); len(got) != lives[j] || (len(got) > 0 && got[0] != int32(fp)) {
			t.Fatalf("walk %d is %v after the runs, want %d entries from %d", fp, got, lives[j], fp)
		}
	}
}
