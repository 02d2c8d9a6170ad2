package walkindex

import (
	"bytes"
	"errors"
	"testing"

	"oipsr/graph"
)

// fuzzSeedIndex returns the byte forms of a small valid index every
// mutation starts from: the retired format 1 (must be rejected) and the
// index file.
func fuzzSeedIndex(t testing.TB) (v1, index []byte) {
	t.Helper()
	g := graph.MustFromEdges(6, [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 1}, {4, 2}, {5, 4}})
	ix, err := buildFull(g, Options{C: 0.6, K: 4, Walks: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return v1Bytes(t, ix), saveBytes(t, ix)
}

// FuzzLoad: the reader must return an error — never panic, never allocate
// proportionally to a forged header — on arbitrary bytes, the retired
// shard file layout included. Anything it accepts must have been consumed
// completely (no trailing bytes), so the stream is exactly one file, and
// must be in the writer's canonical form: load → save is byte-identical.
// (The reader does not itself enforce canonical encoding — a file with
// another block size or an explicit tail where a shared one is shorter
// would decode — but no writer produces one and a mutation cannot reseal
// the CRC over it, so a failure here is a reader/writer disagreement.)
func FuzzLoad(f *testing.F) {
	v1, valid := fuzzSeedIndex(f)
	shard := retiredShard(f)
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
	f.Add(shard) // retired layout: ErrBadMagic
	f.Add(append([]byte(nil), shard[:len(shard)-9]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := Load(bytes.NewReader(data))
		if bytes.HasPrefix(data, []byte("SRWKSHRD")) && !errors.Is(err, ErrBadMagic) {
			t.Fatalf("a file with the retired shard magic: err = %v, want ErrBadMagic", err)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(saveBytes(t, ix), data) {
			t.Fatal("accepted file did not re-save byte-identically")
		}
	})
}

// TestFuzzSeedsRejected pins what the adversarial fuzz seeds must produce:
// the corpus entries built from structured corruption are all rejected
// with the right sentinel (or any error for structural damage).
func TestFuzzSeedsRejected(t *testing.T) {
	_, valid := fuzzSeedIndex(t)

	t.Run("bit-flipped block", func(t *testing.T) {
		corrupt := append([]byte(nil), valid...)
		corrupt[len(corrupt)-8] ^= 0x40
		if _, err := Load(bytes.NewReader(corrupt)); err == nil {
			t.Fatal("bit-flipped block accepted")
		}
	})
	t.Run("truncated block", func(t *testing.T) {
		if _, err := Load(bytes.NewReader(valid[:len(valid)-9])); err == nil {
			t.Fatal("truncated file accepted")
		}
	})
	t.Run("retired shard file", func(t *testing.T) {
		shard := retiredShard(t)
		if _, err := Load(bytes.NewReader(shard)); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("retired shard file: err = %v, want ErrBadMagic", err)
		}
	})
	t.Run("forged directory", func(t *testing.T) {
		forged := append([]byte(nil), valid...)
		forged[52+8+3] ^= 0x01 // first directory offset
		reseal(forged)
		if _, err := Load(bytes.NewReader(forged)); err == nil {
			t.Fatal("CRC-valid forged directory accepted")
		}
	})
}
