package gio

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"oipsr/graph"
)

func TestReadEdgeListBasic(t *testing.T) {
	in := `# a comment
% another comment style

0 1
1 2
2 0
0 1
`
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 {
		t.Errorf("n = %d, want 3", g.NumVertices())
	}
	if g.NumEdges() != 3 { // duplicate 0 1 coalesced
		t.Errorf("m = %d, want 3", g.NumEdges())
	}
	if !g.HasEdge(2, 0) {
		t.Error("missing edge 2->0")
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"0\n",         // too few fields
		"x 1\n",       // bad src
		"1 y\n",       // bad dst
		"-1 2\n",      // negative
		"3 -4\n",      // negative dst
		"1 2 extra\n", // trailing fields are tolerated (SNAP weights)
	}
	for i, in := range cases {
		_, err := ReadEdgeList(strings.NewReader(in))
		if i == len(cases)-1 {
			// Trailing-field lines are accepted (SNAP files carry weights).
			if err != nil {
				t.Errorf("case %d: unexpected error %v", i, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("case %d (%q): want error, got nil", i, in)
		}
	}
}

func TestReadEdgeListNForcesVertexCount(t *testing.T) {
	g, err := ReadEdgeListN(strings.NewReader("0 1\n"), 10)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 10 {
		t.Errorf("n = %d, want 10", g.NumVertices())
	}
}

func sameGraph(a, b *graph.Graph) bool {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for v := 0; v < a.NumVertices(); v++ {
		av, bv := a.In(v), b.In(v)
		if len(av) != len(bv) {
			return false
		}
		if len(av) > 0 && !reflect.DeepEqual(av, bv) {
			return false
		}
	}
	return true
}

func TestEdgeListRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		b := graph.NewBuilder(n, 0)
		b.EnsureVertices(n)
		for i := 0; i < rng.Intn(3*n); i++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		g := b.MustBuild()

		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Log(err)
			return false
		}
		g2, err := ReadEdgeListN(&buf, n)
		if err != nil {
			t.Log(err)
			return false
		}
		return sameGraph(g, g2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	g := graph.MustFromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadEdgeListFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !sameGraph(g, g2) {
		t.Error("file round trip changed the graph")
	}
}

func TestLoadEdgeListFileMissing(t *testing.T) {
	if _, err := LoadEdgeListFile(filepath.Join(t.TempDir(), "nope.txt")); err == nil {
		t.Fatal("want error for missing file")
	}
}
