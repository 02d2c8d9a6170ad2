package graph

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// oracleApply replays the batch against a plain edge set and rebuilds the
// graph from scratch through the Builder — the reference ApplyEdits must
// match structurally.
func oracleApply(t *testing.T, g *Graph, edits []Edit) *Graph {
	t.Helper()
	set := map[[2]int]bool{}
	g.Edges(func(u, v int) bool {
		set[[2]int{u, v}] = true
		return true
	})
	for _, e := range edits {
		if e.Op == EditAdd {
			set[[2]int{e.U, e.V}] = true
		} else {
			delete(set, [2]int{e.U, e.V})
		}
	}
	b := NewBuilder(g.NumVertices(), len(set))
	b.EnsureVertices(g.NumVertices())
	for uv := range set {
		b.AddEdge(uv[0], uv[1])
	}
	ng, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ng
}

func graphsEqual(a, b *Graph) bool {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for v := 0; v < a.NumVertices(); v++ {
		if !reflect.DeepEqual(a.In(v), b.In(v)) || !reflect.DeepEqual(a.Out(v), b.Out(v)) {
			return false
		}
	}
	return true
}

func TestApplyEditsBasic(t *testing.T) {
	g := MustFromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	ng, sum, err := g.ApplyEdits([]Edit{
		{EditAdd, 0, 2},    // new edge
		{EditAdd, 0, 1},    // already present: no-op
		{EditRemove, 2, 3}, // present: removed
		{EditRemove, 4, 4}, // absent: no-op
		{EditAdd, 4, 4},    // self-loop add
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Added != 2 || sum.Removed != 1 {
		t.Fatalf("summary = %+v, want Added 2 Removed 1", sum)
	}
	if want := []int{2, 3, 4}; !reflect.DeepEqual(sum.DirtyIn, want) {
		t.Fatalf("DirtyIn = %v, want %v", sum.DirtyIn, want)
	}
	if want := []int{0, 2, 4}; !reflect.DeepEqual(sum.DirtyOut, want) {
		t.Fatalf("DirtyOut = %v, want %v", sum.DirtyOut, want)
	}
	if err := ng.Validate(); err != nil {
		t.Fatal(err)
	}
	if !ng.HasEdge(0, 2) || ng.HasEdge(2, 3) || !ng.HasEdge(4, 4) {
		t.Fatal("edits not applied")
	}
	// The receiver must be untouched.
	if g.NumEdges() != 4 || g.HasEdge(0, 2) || !g.HasEdge(2, 3) {
		t.Fatal("ApplyEdits mutated the receiver")
	}
}

func TestApplyEditsLastWins(t *testing.T) {
	g := MustFromEdges(3, [][2]int{{0, 1}})
	// add then remove the same absent edge: net no-op
	ng, sum, err := g.ApplyEdits([]Edit{{EditAdd, 1, 2}, {EditRemove, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Added != 0 || sum.Removed != 0 || ng.NumEdges() != 1 || len(sum.DirtyIn) != 0 {
		t.Fatalf("add+remove: summary %+v, m=%d", sum, ng.NumEdges())
	}
	// remove then re-add an existing edge: net no-op
	ng, sum, err = g.ApplyEdits([]Edit{{EditRemove, 0, 1}, {EditAdd, 0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Added != 0 || sum.Removed != 0 || !ng.HasEdge(0, 1) {
		t.Fatalf("remove+add: summary %+v", sum)
	}
}

func TestApplyEditsValidation(t *testing.T) {
	g := MustFromEdges(3, [][2]int{{0, 1}})
	for _, edits := range [][]Edit{
		{{EditAdd, -1, 0}},
		{{EditAdd, 0, 3}},
		{{EditRemove, 7, 7}},
		{{EditOp(9), 0, 1}},
	} {
		if _, _, err := g.ApplyEdits(edits); err == nil {
			t.Errorf("ApplyEdits(%v) accepted invalid batch", edits)
		}
	}
}

func TestApplyEditsEmptyBatch(t *testing.T) {
	g := MustFromEdges(4, [][2]int{{0, 1}, {2, 3}})
	ng, sum, err := g.ApplyEdits(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !graphsEqual(g, ng) || sum.Added != 0 || sum.Removed != 0 {
		t.Fatal("empty batch changed the graph")
	}
}

// TestApplyEditsRandomVsOracle: random batches on random graphs must match
// a from-scratch rebuild of the edited edge set, and the dirty lists must
// contain exactly the vertices whose adjacency rows changed.
func TestApplyEditsRandomVsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(30)
		b := NewBuilder(n, 0)
		b.EnsureVertices(n)
		for i := 0; i < rng.Intn(4*n); i++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		g := b.MustBuild()

		edits := make([]Edit, rng.Intn(20))
		for i := range edits {
			edits[i] = Edit{EditOp(rng.Intn(2)), rng.Intn(n), rng.Intn(n)}
		}
		ng, sum, err := g.ApplyEdits(edits)
		if err != nil {
			t.Fatal(err)
		}
		if err := ng.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := oracleApply(t, g, edits)
		if !graphsEqual(ng, want) {
			t.Fatalf("trial %d: ApplyEdits disagrees with oracle rebuild", trial)
		}
		if ng.NumEdges() != g.NumEdges()+sum.Added-sum.Removed {
			t.Fatalf("trial %d: edge count %d != %d+%d-%d", trial, ng.NumEdges(), g.NumEdges(), sum.Added, sum.Removed)
		}
		// Dirty lists == exactly the changed rows.
		dirtyIn, dirtyOut := map[int]bool{}, map[int]bool{}
		for v := 0; v < n; v++ {
			if !reflect.DeepEqual(g.In(v), ng.In(v)) {
				dirtyIn[v] = true
			}
			if !reflect.DeepEqual(g.Out(v), ng.Out(v)) {
				dirtyOut[v] = true
			}
		}
		checkDirty := func(got []int, want map[int]bool, dir string) {
			if len(got) != len(want) {
				t.Fatalf("trial %d: %s dirty list %v, want %d vertices", trial, dir, got, len(want))
			}
			for i, v := range got {
				if !want[v] {
					t.Fatalf("trial %d: %s dirty list contains unchanged vertex %d", trial, dir, v)
				}
				if i > 0 && got[i-1] >= v {
					t.Fatalf("trial %d: %s dirty list not sorted", trial, dir)
				}
			}
		}
		checkDirty(sum.DirtyIn, dirtyIn, "in")
		checkDirty(sum.DirtyOut, dirtyOut, "out")
	}
}

// FuzzApplyEdits: ApplyEdits against oracleApply on a graph and a batch
// the fuzzer chooses, with DirtyIn and DirtyOut exactly the vertices whose
// rows changed and the receiver untouched. The input is n (mod 48), the
// number of starting edges, two bytes (u, v) per edge, and then three bytes
// (op, u, v) per edit, each taken mod 2 or mod n.
func FuzzApplyEdits(f *testing.F) {
	f.Add([]byte{6, 2, 1, 2, 2, 3, 0, 3, 0, 0, 2, 5})                      // dirty rows at 0 and n−1
	f.Add([]byte{6, 2, 1, 2, 4, 5, 0, 0, 2, 0, 0, 3, 0, 1, 3})             // adjacent dirty rows
	f.Add([]byte{5, 3, 0, 1, 1, 2, 2, 3, 0, 0, 1, 1, 3, 4, 0, 1, 2})       // only no-ops
	f.Add([]byte{5, 2, 3, 3, 0, 1, 0, 2, 2, 1, 3, 3, 0, 4, 4})             // self-loops
	f.Add([]byte{5, 3, 0, 2, 1, 2, 2, 4, 1, 0, 2, 1, 1, 2, 1, 2, 4})       // a row emptied to degree 0
	f.Add([]byte{0, 0})                                                    // no vertices
	f.Add([]byte{40, 90, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0, 1, 2, 1, 3, 4}) // edges run out
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 1024 {
			t.Skip()
		}
		n, edges := int(data[0])%48, int(data[1])
		data = data[2:]
		b := NewBuilder(n, 0)
		b.EnsureVertices(n)
		for ; n > 0 && edges > 0 && len(data) >= 2; edges-- {
			b.AddEdge(int(data[0])%n, int(data[1])%n)
			data = data[2:]
		}
		g := b.MustBuild()
		var edits []Edit
		for ; n > 0 && len(data) >= 3; data = data[3:] {
			edits = append(edits, Edit{EditOp(data[0] % 2), int(data[1]) % n, int(data[2]) % n})
		}
		before := oracleApply(t, g, nil)

		ng, sum, err := g.ApplyEdits(edits)
		if err != nil {
			t.Fatal(err)
		}
		if err := ng.Validate(); err != nil {
			t.Fatal(err)
		}
		if !graphsEqual(ng, oracleApply(t, g, edits)) {
			t.Fatal("ApplyEdits disagrees with the oracle's rebuild")
		}
		if !graphsEqual(g, before) {
			t.Fatal("ApplyEdits changed the receiver")
		}
		if ng.NumEdges() != g.NumEdges()+sum.Added-sum.Removed {
			t.Fatalf("%d edges, want %d + %d − %d", ng.NumEdges(), g.NumEdges(), sum.Added, sum.Removed)
		}
		var dirtyIn, dirtyOut []int
		for v := 0; v < n; v++ {
			if !slices.Equal(g.In(v), ng.In(v)) {
				dirtyIn = append(dirtyIn, v)
			}
			if !slices.Equal(g.Out(v), ng.Out(v)) {
				dirtyOut = append(dirtyOut, v)
			}
		}
		if !slices.Equal(sum.DirtyIn, dirtyIn) || !slices.Equal(sum.DirtyOut, dirtyOut) {
			t.Fatalf("dirty lists in %v, out %v; the changed rows are in %v, out %v", sum.DirtyIn, sum.DirtyOut, dirtyIn, dirtyOut)
		}
	})
}
