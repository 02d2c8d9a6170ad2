package query

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"oipsr/graph/gen"
	"oipsr/internal/walkindex"
)

func buildTestIndex(t *testing.T) *Index {
	t.Helper()
	g := gen.WebGraph(80, 6, 5)
	ix, err := BuildIndex(g, Options{Walks: 60, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestSaveLoadBitIdenticalQueries(t *testing.T) {
	ix := buildTestIndex(t)
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < ix.N(); q += 9 {
		a, err := ix.SingleSource(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.SingleSource(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		for v := range a {
			if a[v] != b[v] {
				t.Fatalf("SingleSource(%d)[%d]: %g != %g after Save/Load", q, v, a[v], b[v])
			}
		}
		ta, err := ix.TopK(context.Background(), q, 10, nil)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := loaded.TopK(context.Background(), q, 10, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ta, tb) {
			t.Fatalf("TopK(%d) differs after Save/Load:\n%v\n%v", q, ta, tb)
		}
	}
	if ix.C() != loaded.C() || ix.Horizon() != loaded.Horizon() ||
		ix.Walks() != loaded.Walks() || ix.Seed() != loaded.Seed() {
		t.Fatal("index parameters changed across Save/Load")
	}
}

func TestSaveFileLoadFile(t *testing.T) {
	ix := buildTestIndex(t)
	path := filepath.Join(t.TempDir(), "walks.idx")
	if err := ix.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := ix.SingleSource(context.Background(), 7)
	b, _ := loaded.SingleSource(context.Background(), 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("SingleSource differs after SaveFile/LoadFile")
	}
}

// format1File forges a file of the retired dense format 1 from a valid
// file's 52-byte header: version 1, then elems = n*r*k raw int32 path
// entries (zeros) and the CRC trailer. Nothing writes or reads such files
// any more; the tests and fuzz seeds keep them as must-reject inputs.
func format1File(valid []byte, elems int) []byte {
	v1 := append([]byte(nil), valid[:52]...)
	v1[8] = 1
	v1 = append(v1, make([]byte, 4*elems)...)
	return binary.LittleEndian.AppendUint32(v1, crc32.ChecksumIEEE(v1))
}

// TestLoadRejectsRetiredFormat1: a format-1 file is a clean ErrVersion
// through every public loader — never a misread, never a v1 decode.
func TestLoadRejectsRetiredFormat1(t *testing.T) {
	ix := buildTestIndex(t)
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	v1 := format1File(buf.Bytes(), ix.N()*ix.Walks()*ix.Horizon())
	path := filepath.Join(t.TempDir(), "format1.idx")
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	_, errLoad := Load(bytes.NewReader(v1))
	_, errFile := LoadFile(path)
	_, errMapped := LoadFileMapped(path, MappedOptions{})
	for name, err := range map[string]error{"Load": errLoad, "LoadFile": errFile, "LoadFileMapped": errMapped} {
		if !errors.Is(err, walkindex.ErrVersion) {
			t.Errorf("%s(format-1 file) = %v, want ErrVersion", name, err)
		}
	}
}

func TestLoadedIndexNeedsGraphForRerank(t *testing.T) {
	ix := buildTestIndex(t)
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.TopK(context.Background(), 3, 5, &TopKOptions{Rerank: true}); err == nil {
		t.Fatal("rerank without an attached graph succeeded, want error")
	}
	if err := loaded.AttachGraph(gen.WebGraph(81, 6, 5)); err == nil {
		t.Fatal("AttachGraph with wrong vertex count succeeded, want error")
	}
	if err := loaded.AttachGraph(ix.Graph()); err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.TopK(context.Background(), 3, 5, &TopKOptions{Rerank: true}); err != nil {
		t.Fatalf("rerank after AttachGraph: %v", err)
	}
}

func TestQueryValidation(t *testing.T) {
	ix := buildTestIndex(t)
	if _, err := ix.SingleSource(context.Background(), -1); err == nil {
		t.Error("SingleSource(-1) succeeded")
	}
	if _, err := ix.SingleSource(context.Background(), ix.N()); err == nil {
		t.Error("SingleSource(N) succeeded")
	}
	if _, err := ix.TopK(context.Background(), 0, 0, nil); err == nil {
		t.Error("TopK with k=0 succeeded")
	}
	if _, err := ix.TopK(context.Background(), ix.N()+3, 5, nil); err == nil {
		t.Error("TopK with out-of-range query succeeded")
	}
	if _, err := ix.Pair(0, ix.N()); err == nil {
		t.Error("Pair with out-of-range vertex succeeded")
	}
	// k larger than n-1 clamps instead of failing.
	top, err := ix.TopK(context.Background(), 0, ix.N()*2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != ix.N()-1 {
		t.Errorf("clamped TopK returned %d entries, want %d", len(top), ix.N()-1)
	}
}

// TestTopByScore cross-checks the partial selection against a full sort.
func TestTopByScore(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(60)
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = float64(rng.Intn(8)) / 8 // coarse values force ties
		}
		skip := rng.Intn(n)
		m := rng.Intn(n + 2)

		got := topByScore(scores, skip, m)

		idx := make([]int, 0, n-1)
		for v := range scores {
			if v != skip {
				idx = append(idx, v)
			}
		}
		sort.SliceStable(idx, func(a, b int) bool {
			if scores[idx[a]] != scores[idx[b]] {
				return scores[idx[a]] > scores[idx[b]]
			}
			return idx[a] < idx[b]
		})
		want := make([]Ranked, 0, m)
		for i := 0; i < m && i < len(idx); i++ {
			want = append(want, Ranked{Vertex: idx[i], Score: scores[idx[i]]})
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d m=%d skip=%d):\ngot  %v\nwant %v", trial, n, m, skip, got, want)
		}
	}
}
