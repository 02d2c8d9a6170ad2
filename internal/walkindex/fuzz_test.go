package walkindex

import (
	"bytes"
	"testing"

	"oipsr/graph"
)

// fuzzSeedIndex returns a small valid index and the byte forms every
// mutation starts from: the retired format 1 (must be rejected), the
// index file, and the shard file of an interior range.
func fuzzSeedIndex(t testing.TB) (v1, index, shard []byte) {
	t.Helper()
	g := graph.MustFromEdges(6, [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 1}, {4, 2}, {5, 4}})
	opt := Options{C: 0.6, K: 4, Walks: 3, Seed: 1}
	ix, err := buildFull(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	sx, err := Build(g, opt, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	return v1Bytes(t, ix, IndexFile), saveBytes(t, ix, IndexFile), saveBytes(t, sx, ShardFile)
}

// FuzzLoad: the reader must return an error — never panic, never allocate
// proportionally to a forged header — on arbitrary bytes, whichever file
// kind the caller expects. Anything it accepts must have been consumed
// completely (no trailing bytes), so the stream is exactly one file, and
// must be in the writer's canonical form: load → save is byte-identical.
// (The reader does not itself enforce canonical encoding — a file with
// another block size or an explicit tail where a shared one is shorter
// would decode — but no writer produces one and a mutation cannot reseal
// the CRC over it, so a failure here is a reader/writer disagreement.)
func FuzzLoad(f *testing.F) {
	v1, valid, shard := fuzzSeedIndex(f)
	const hs = 52 // index-file header size
	f.Add(v1)     // retired format: ErrVersion
	f.Add(valid)
	f.Add(v1[:len(v1)-5])                        // truncated v1 payload
	f.Add(valid[:hs])                            // header only
	f.Add([]byte{})                              // empty
	f.Add([]byte("SRWKIDX\x00junk"))             // magic, garbage after
	f.Add(bytes.Repeat([]byte{0}, 64))           // zeros
	f.Add(append(append([]byte{}, v1...), 0x00)) // trailing byte after v1 trailer
	f.Add(append(append([]byte{}, valid...), 'x'))
	corrupt := append([]byte(nil), v1...)
	corrupt[hs+3] ^= 0x20 // v1 payload bit flip
	f.Add(corrupt)
	corrupt2 := append([]byte(nil), valid...)
	corrupt2[len(corrupt2)-8] ^= 0x40 // posting-block bit flip
	f.Add(corrupt2)
	f.Add(append([]byte(nil), valid[:len(valid)-9]...)) // truncated block
	forgedDir := append([]byte(nil), valid...)
	forgedDir[hs+8+3] ^= 0x01 // block directory offset flip
	reseal(forgedDir)         // CRC-valid forged directory
	f.Add(forgedDir)
	f.Add(shard)
	f.Add(append([]byte(nil), shard[:len(shard)-9]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, kind := range []FileKind{IndexFile, ShardFile} {
			ix, err := Load(bytes.NewReader(data), kind)
			if err != nil {
				continue
			}
			if !bytes.Equal(saveBytes(t, ix, kind), data) {
				t.Fatalf("accepted %v file did not re-save byte-identically", kind)
			}
		}
	})
}

// TestFuzzSeedsRejected pins what the adversarial fuzz seeds must produce:
// the corpus entries built from structured corruption are all rejected
// with the right sentinel (or any error for structural damage).
func TestFuzzSeedsRejected(t *testing.T) {
	_, valid, _ := fuzzSeedIndex(t)

	t.Run("bit-flipped block", func(t *testing.T) {
		corrupt := append([]byte(nil), valid...)
		corrupt[len(corrupt)-8] ^= 0x40
		if _, err := Load(bytes.NewReader(corrupt), IndexFile); err == nil {
			t.Fatal("bit-flipped block accepted")
		}
	})
	t.Run("truncated block", func(t *testing.T) {
		if _, err := Load(bytes.NewReader(valid[:len(valid)-9]), IndexFile); err == nil {
			t.Fatal("truncated file accepted")
		}
	})
	t.Run("forged directory", func(t *testing.T) {
		forged := append([]byte(nil), valid...)
		forged[52+8+3] ^= 0x01 // first directory offset
		reseal(forged)
		if _, err := Load(bytes.NewReader(forged), IndexFile); err == nil {
			t.Fatal("CRC-valid forged directory accepted")
		}
	})
}
