package sparserow

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// The model: a row is a map from vertex to score, absent vertices scoring 0.
// Every operation is checked against the obvious computation on the map (or
// on the dense vector it spells out), and every operand is compared with a
// deep copy taken before the call — a pooled row that handed out or wrote
// through memory it does not own would fail that, not the result check.

type model map[int32]float64

func rowOf(m model) *Row {
	ids := make([]int32, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	r := &Row{}
	for _, id := range ids {
		r.Append(id, m[id])
	}
	return r
}

func (r *Row) clone() *Row {
	return &Row{IDs: slices.Clone(r.IDs), Scores: slices.Clone(r.Scores)}
}

// same compares ids and score bits, so NaNs and signed zeros count.
func same(a, b *Row) bool {
	return slices.Equal(a.IDs, b.IDs) && slices.EqualFunc(a.Scores, b.Scores, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	})
}

func requireUnchanged(t *testing.T, what string, got, orig *Row) {
	t.Helper()
	if !same(got, orig) {
		t.Fatalf("%s changed its operand:\n got %v\nwant %v", what, got, orig)
	}
}

func (m model) dense(n int) []float64 {
	d := make([]float64, n)
	for id, s := range m {
		d[id] = s
	}
	return d
}

// rankAll is the reference ranking of a dense vector: every vertex but
// skip, by (score desc, vertex asc).
func rankAll(dense []float64, skip int) []Entry {
	var all []Entry
	for v, s := range dense {
		if v != skip {
			all = append(all, Entry{Vertex: v, Score: s})
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].Vertex < all[j].Vertex
	})
	return all
}

func modelTop(m model, mm, skip, n int) []Entry {
	all := rankAll(m.dense(n), skip)
	return append([]Entry{}, all[:min(max(mm, 0), len(all))]...)
}

func modelAbove(m model, minScore float64, skip, n int) []Entry {
	out := []Entry{}
	for _, e := range rankAll(m.dense(n), skip) {
		if e.Score >= minScore {
			out = append(out, e)
		}
	}
	return out
}

// checkOps runs every operation on rows a and b of an n-vertex graph (ids
// disjoint between the two) against the model.
func checkOps(t *testing.T, ma, mb model, n, m, skip int, minScore float64) {
	t.Helper()
	a, b := rowOf(ma), rowOf(mb)
	aOrig, bOrig := a.clone(), b.clone()
	union := model{}
	for id, s := range ma {
		union[id] = s
	}
	for id, s := range mb {
		union[id] = s
	}
	want := rowOf(union)

	// Merge, both argument orders, into a row with spare capacity (the
	// pooled case: stale entries sit behind the length).
	for _, arg := range []struct {
		name     string
		dst, src *Row
		srcOrig  *Row
	}{{"a.Merge(b)", a, b, bOrig}, {"b.Merge(a)", b, a, aOrig}} {
		dst := &Row{IDs: make([]int32, 0, 4*n+4), Scores: make([]float64, 0, 4*n+4)}
		dst.IDs, dst.Scores = dst.IDs[:cap(dst.IDs)], dst.Scores[:cap(dst.Scores)]
		for i := range dst.IDs {
			dst.IDs[i], dst.Scores[i] = -7, math.Inf(-1)
		}
		dst.Reset()
		for i, id := range arg.dst.IDs {
			dst.Append(id, arg.dst.Scores[i])
		}
		dst.Merge(arg.src)
		if !same(dst, want) {
			t.Fatalf("%s = %v, model %v", arg.name, dst, want)
		}
		requireUnchanged(t, arg.name, arg.src, arg.srcOrig)
	}
	// Merge into an empty row and of an empty row.
	empty := &Row{}
	empty.Merge(a)
	if !same(empty, aOrig) {
		t.Fatalf("empty.Merge(a) = %v, want %v", empty, aOrig)
	}
	empty.Reset()
	a.Merge(empty)
	requireUnchanged(t, "a.Merge(empty)", a, aOrig)

	// Append-run: a row rebuilt entry by entry, and from the dense vector.
	dense := ma.dense(n)
	re := Get()
	re.AppendDense(0, dense)
	nonzero := model{}
	for id, s := range ma {
		if s != 0 {
			nonzero[id] = s
		}
	}
	if !same(re, rowOf(nonzero)) {
		t.Fatalf("AppendDense = %v, want %v", re, rowOf(nonzero))
	}
	Release(re)

	// Densify into a dirty buffer.
	buf := make([]float64, n)
	for i := range buf {
		buf[i] = math.NaN()
	}
	a.Densify(buf)
	for v := range buf {
		if math.Float64bits(buf[v]) != math.Float64bits(dense[v]) {
			t.Fatalf("Densify[%d] = %v, model %v", v, buf[v], dense[v])
		}
	}
	requireUnchanged(t, "Densify", a, aOrig)

	// Filter and selection.
	if got, want := a.Above(minScore, skip, n), modelAbove(ma, minScore, skip, n); !slices.Equal(got, want) {
		t.Fatalf("Above(%v, skip %d) = %v, model %v (row %v)", minScore, skip, got, want, a)
	}
	requireUnchanged(t, "Above", a, aOrig)
	if got, want := a.Top(m, skip, n), modelTop(ma, m, skip, n); !slices.Equal(got, want) {
		t.Fatalf("Top(%d, skip %d, n %d) = %v, model %v (row %v)", m, skip, n, got, want, a)
	}
	requireUnchanged(t, "Top", a, aOrig)
}

// randomModels draws two rows with disjoint ids over [0, n): scores from a
// small set so ties are common, optionally none in a "missing shard range".
func randomModels(rng *rand.Rand, n int) (a, b model) {
	a, b = model{}, model{}
	scores := []float64{0.5, 0.25, 0.25, 0.125, 1, 1e-300, rng.Float64()}
	density := rng.Float64()
	holeLo := rng.Intn(n + 1)
	holeHi := holeLo + rng.Intn(n+1-holeLo)
	if rng.Intn(2) == 0 {
		holeHi = holeLo // no hole
	}
	for v := 0; v < n; v++ {
		if v >= holeLo && v < holeHi || rng.Float64() >= density {
			continue
		}
		if s := scores[rng.Intn(len(scores))]; rng.Intn(3) == 0 {
			b[int32(v)] = s
		} else {
			a[int32(v)] = s
		}
	}
	return a, b
}

func TestRowOpsAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	mins := []float64{math.NaN(), -1, 0, math.Copysign(0, -1), 1e-300, 0.25, 1, 2}
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(40)
		ma, mb := randomModels(rng, n)
		skip := rng.Intn(n+2) - 1 // -1 and n: no vertex skipped
		if rng.Intn(4) == 0 && len(ma) > 0 {
			for id := range ma { // q present, now and then the only non-zero
				skip = int(id)
				if rng.Intn(3) == 0 {
					ma = model{id: 1}
				}
				break
			}
		}
		m := rng.Intn(n+3) - 1 // -1, 0, and past n-1 (clamp)
		checkOps(t, ma, mb, n, m, skip, mins[rng.Intn(len(mins))])
	}
	// The rows the serving path sees most: nothing, and nothing but q.
	for _, ma := range []model{{}, {3: 1}} {
		for _, m := range []int{1, 10, 40, 63, 64, 100} {
			checkOps(t, ma, model{}, 64, m, 3, 0.01)
			checkOps(t, ma, model{}, 64, m, 3, 0)
		}
	}
}

// TestTopExplicitOddScores: entries a well-formed walk row never holds —
// explicit zeros, negatives, infinities — rank exactly as they do in the dense
// vector, because a leg decoded off the wire may carry any bits.
func TestTopExplicitOddScores(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	odd := []float64{0, -1, -0.5, 0.5, math.Inf(1), math.Inf(-1)}
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(24)
		ma := model{}
		for v := 0; v < n; v++ {
			if rng.Intn(3) == 0 {
				ma[int32(v)] = odd[rng.Intn(len(odd))]
			}
		}
		a := rowOf(ma)
		m, skip := rng.Intn(n+2), rng.Intn(n+1)
		if got, want := a.Top(m, skip, n), modelTop(ma, m, skip, n); !slices.Equal(got, want) {
			t.Fatalf("Top(%d, skip %d, n %d) over %v = %v, model %v", m, skip, n, a, got, want)
		}
		minScore := odd[rng.Intn(len(odd))]
		if got, want := a.Above(minScore, skip, n), modelAbove(ma, minScore, skip, n); !slices.Equal(got, want) {
			t.Fatalf("Above(%v) over %v = %v, model %v", minScore, a, got, want)
		}
	}
}

// TestPoolHandsOutEmptyRows: a released row comes back empty however it was
// left.
func TestPoolHandsOutEmptyRows(t *testing.T) {
	for i := 0; i < 100; i++ {
		r := Get()
		if r.Len() != 0 {
			t.Fatalf("Get returned a row of %d entries", r.Len())
		}
		r.Append(int32(i), 1)
		Release(r)
	}
}

// FuzzRowModel drives checkOps from fuzzer-chosen bytes: per vertex one byte
// picks absent / row a / row b and a score class, the trailer picks m, skip
// and the threshold.
func FuzzRowModel(f *testing.F) {
	f.Add([]byte{}, 10, 0, 0.01)
	f.Add([]byte{1, 0, 0, 2, 0x11, 0x21, 0, 0, 0x32}, 40, 3, 0.0)
	f.Add([]byte{0x11, 0x12, 0x11, 0x12, 0x41, 0x42}, 2, 0, 0.25)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0x51}, 100, 7, -1.0)
	f.Add([]byte{0x61, 0x62, 0x61}, 1, 9, math.NaN())
	f.Fuzz(func(t *testing.T, cells []byte, m, skip int, minScore float64) {
		if len(cells) > 256 {
			cells = cells[:256]
		}
		n := len(cells) + 1
		scores := []float64{0.5, 0.25, 0.125, 1, 1e-300, 0.75, 0.0625}
		ma, mb := model{}, model{}
		for v, c := range cells {
			s := scores[int(c>>4)%len(scores)]
			switch c & 3 {
			case 1:
				ma[int32(v)] = s
			case 2:
				mb[int32(v)] = s
			}
		}
		m = (m%(n+3)+n+3)%(n+3) - 1       // -1 … n+1: nothing, and past the clamp
		skip = (skip%(n+2)+n+2)%(n+2) - 1 // -1 and n: no vertex skipped
		checkOps(t, ma, mb, n, m, skip, minScore)
	})
}
