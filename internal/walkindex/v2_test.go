package walkindex

import (
	"bytes"
	"errors"
	"testing"

	"oipsr/graph/gen"
)

// TestV2ReencodeByteIdentical is the canonical-encoding property: a file
// decoded and re-saved reproduces its bytes exactly, for row counts on and
// off the posting-block boundary.
func TestV2ReencodeByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		n, d int
		seed int64
	}{
		{"web", 300, 5, 3},
		{"citation", 257, 4, 8}, // rows not a multiple of the block size
		{"tiny", 3, 2, 1},       // single partial block
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := gen.WebGraph(tc.n, tc.d, tc.seed)
			ix, err := buildFull(g, Options{Walks: 20, Seed: tc.seed})
			if err != nil {
				t.Fatal(err)
			}
			data := saveBytes(t, ix)
			mid, err := Load(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("loading: %v", err)
			}
			if !ix.Equal(mid) {
				t.Fatal("round trip changed the index")
			}
			if !bytes.Equal(saveBytes(t, mid), data) {
				t.Fatal("re-encode is not byte-identical")
			}
		})
	}
}

// TestV2Compresses: on the bench-style graphs the compressed file must be
// at most half the dense r·k-per-vertex payload (the format's acceptance
// bar; the resident ragged store is smaller than both).
func TestV2Compresses(t *testing.T) {
	g := gen.WebGraph(1000, 8, 21)
	ix, err := buildFull(g, Options{Walks: 50, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	file, dense := len(saveBytes(t, ix)), 4*ix.Width()*ix.r*ix.k
	if ratio := float64(file) / float64(dense); ratio > 0.5 {
		t.Errorf("file/dense size ratio %.3f, want <= 0.5 (%d vs %d bytes)", ratio, file, dense)
	}
}

// TestSaveValidatesLoadGuards is the round-trip asymmetry fix: Save used
// to happily write an index whose dimensions Load would then reject. Now
// every guard the reader enforces is checked at save time, with the
// ErrFormatLimits sentinel, before a byte is written.
func TestSaveValidatesLoadGuards(t *testing.T) {
	for _, tc := range []struct {
		name string
		ix   *Index
	}{
		{"horizon over v2 guard", &Index{n: 1, hi: 1, k: int(maxV2Horizon) + 1, r: 1, c: 0.5}},
		{"element overflow", &Index{n: 1 << 30, hi: 1 << 30, k: 1 << 10, r: 1 << 10, c: 0.5}},
		{"bad damping", &Index{n: 1, hi: 1, k: 2, r: 1, c: 1.5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tc.ix.Save(&buf); !errors.Is(err, ErrFormatLimits) {
				t.Fatalf("Save = %v, want ErrFormatLimits", err)
			}
			if buf.Len() != 0 {
				t.Fatalf("Save wrote %d bytes before failing validation", buf.Len())
			}
		})
	}
}
