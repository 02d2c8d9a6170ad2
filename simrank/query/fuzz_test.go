package query

import (
	"bytes"
	"context"
	"testing"

	"oipsr/graph"
)

// FuzzLoad: the public index loader must return an error — never panic —
// on arbitrary bytes, and anything it accepts must re-save to the same
// bytes, refuse score rows until a graph is attached, and serve them
// without panicking once the seed graph is accepted. The format-1 seeds
// are files of the retired dense format: they must be rejected cleanly.
func FuzzLoad(f *testing.F) {
	g := graph.MustFromEdges(6, [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 1}, {4, 2}, {5, 4}})
	ix, err := BuildIndex(g, Options{C: 0.6, K: 4, Walks: 3, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	v1 := format1File(valid, 6*3*4)
	f.Add(v1)
	f.Add(v1[:len(v1)/2]) // truncated
	f.Add([]byte{})
	corrupt := append([]byte(nil), v1...)
	corrupt[len(corrupt)-2] ^= 0x01 // checksum flip
	f.Add(corrupt)
	f.Add(valid)
	f.Add(valid[:len(valid)*3/4]) // truncated inside the posting blocks
	corrupt2 := append([]byte(nil), valid...)
	corrupt2[len(corrupt2)-8] ^= 0x40 // posting-block flip
	f.Add(corrupt2)
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := got.Save(&again); err != nil {
			t.Fatalf("re-saving accepted index: %v", err)
		}
		if !bytes.Equal(again.Bytes(), data) {
			t.Fatal("accepted index did not re-save byte-identically")
		}
		// Before a graph a loaded index has no order and refuses; after
		// one it accepts it must answer estimate-only queries for every
		// vertex without panicking, even on adversarial payload values.
		if _, err := got.SingleSource(context.Background(), 0); err == nil && got.N() > 0 {
			t.Fatal("SingleSource answered before a graph was attached")
		}
		if got.AttachGraph(g) != nil {
			return
		}
		for v := 0; v < got.N(); v++ {
			if _, err := got.SingleSource(context.Background(), v); err != nil {
				t.Fatalf("SingleSource(%d) on accepted index: %v", v, err)
			}
			if _, err := got.TopK(context.Background(), v, 3, nil); err != nil {
				t.Fatalf("TopK(%d) on accepted index: %v", v, err)
			}
		}
	})
}
