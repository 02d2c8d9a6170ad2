package walkindex

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"oipsr/graph"
	"oipsr/graph/gen"
)

func buildSmall(t *testing.T) *Index {
	t.Helper()
	g := gen.WebGraph(50, 5, 7)
	ix, err := buildFull(g, Options{C: 0.7, K: 9, Walks: 30, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func saveBytes(t testing.TB, ix *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reseal recomputes and patches the trailing CRC after a test mutated the
// payload, so the mutation — not the checksum — is what Load must reject.
func reseal(data []byte) {
	sum := crc32.ChecksumIEEE(data[:len(data)-4])
	binary.LittleEndian.PutUint32(data[len(data)-4:], sum)
}

// v1Bytes hand-writes ix in the retired format 1 (the header with version
// 1, the raw little-endian []int32 payload, the CRC trailer). No code path
// writes or reads it any more; the tests and fuzz seeds keep such files
// around as inputs that must be rejected cleanly.
func v1Bytes(t testing.TB, ix *Index) []byte {
	t.Helper()
	h, err := writableHeader(ix.n, ix.lo, ix.hi, ix.k, ix.r, ix.c, ix.seed)
	if err != nil {
		t.Fatal(err)
	}
	pre := h.preamble(0, 0)
	data := pre[:len(pre)-8] // v1 has no block size/count
	binary.LittleEndian.PutUint32(data[8:], 1)
	for v := 0; v < ix.Width(); v++ {
		for _, e := range ix.denseRow(v, nil) {
			data = binary.LittleEndian.AppendUint32(data, uint32(e))
		}
	}
	return binary.LittleEndian.AppendUint32(data, crc32.ChecksumIEEE(data))
}

// opening is one of the two ways bytes reach readFile: read by Load from
// a stream or by LoadWriteBack from a path (the "mapped" opening, after
// the flag that selects it). Every rejection test below runs over both,
// so the documented load order is asserted for each opening by the same
// code instead of kept by convention.
type opening struct {
	name   string
	mapped bool
}

var openings = []opening{
	{"index-decoded", false},
	{"index-mapped", true},
}

// headerSize is the bytes before the block size and count.
const headerSize = 52

// retiredShard is the parent's shard file of the range [10, 120): the
// retired layout, whose 68-byte header carried the owned range under the
// magic "SRWKSHRD". Every opening refuses it with ErrBadMagic.
func retiredShard(t testing.TB) []byte {
	t.Helper()
	data, err := os.ReadFile("testdata/parent/parent-v2.shard")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// refusesRetiredShard runs, per opening, a subtest named for the retired
// shard file through it ("shard-decoded", "shard-mapped") that requires
// ErrBadMagic.
func refusesRetiredShard(t *testing.T) {
	data := retiredShard(t)
	for _, o := range openings {
		t.Run("shard"+strings.TrimPrefix(o.name, "index"), func(t *testing.T) {
			if _, err := o.open(t, data); !errors.Is(err, ErrBadMagic) {
				t.Fatalf("retired shard file: err = %v, want ErrBadMagic", err)
			}
		})
	}
}

// open feeds data to the opening's loader.
func (o opening) open(t *testing.T, data []byte) (*Index, error) {
	t.Helper()
	if !o.mapped {
		return Load(bytes.NewReader(data))
	}
	path := filepath.Join(t.TempDir(), "file.srwk")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	ix, err := LoadWriteBack(path)
	if err == nil {
		t.Cleanup(func() { ix.Close() })
	}
	return ix, err
}

// forEachOpening runs fn once per opening with a fresh copy of a valid
// file (three posting blocks, the last one partial) and the index it was
// saved from.
func forEachOpening(t *testing.T, fn func(t *testing.T, o opening, ix *Index, valid []byte)) {
	ix, err := buildFull(openingGraph(), Options{C: 0.7, K: 9, Walks: 12, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	valid := saveBytes(t, ix)
	for _, o := range openings {
		t.Run(o.name, func(t *testing.T) { fn(t, o, ix, bytes.Clone(valid)) })
	}
}

// openingGraph is the graph forEachOpening's indexes are built on.
func openingGraph() *graph.Graph { return gen.WebGraph(150, 5, 7) }

func TestSaveLoadRoundTrip(t *testing.T) {
	forEachOpening(t, func(t *testing.T, o opening, ix *Index, valid []byte) {
		got, err := o.open(t, valid)
		if err != nil {
			t.Fatal(err)
		}
		if !ix.Equal(got) {
			t.Fatal("loaded index differs from saved index")
		}
		if got.Lo() != 0 || got.Hi() != 150 || got.N() != 150 {
			t.Fatalf("round-tripped range/size wrong: n=%d [%d,%d)", got.N(), got.Lo(), got.Hi())
		}
		if !bytes.Equal(saveBytes(t, got), valid) {
			t.Fatal("load -> save is not byte-identical")
		}
		// Bit-identical query results, not just equal storage.
		attach(t, got, openingGraph())
		a, b := ssRow(t, ix, 3), ssRow(t, got, 3)
		for v := range a {
			if a[v] != b[v] {
				t.Fatalf("row of 3, cell %d: %g != %g after round-trip", v, a[v], b[v])
			}
		}
	})
}

// TestLoadRejectsBadMagic: a foreign magic is ErrBadMagic — and so is a
// shard file of the retired layout, through every opening. A second pass
// (the "#01" subtests) swaps the two magics: an index body under the
// retired shard magic is ErrBadMagic, and a retired shard file relabelled
// with the index magic still never loads.
func TestLoadRejectsBadMagic(t *testing.T) {
	forEachOpening(t, func(t *testing.T, o opening, _ *Index, valid []byte) {
		valid[0] = 'X'
		reseal(valid)
		if _, err := o.open(t, valid); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("err = %v, want ErrBadMagic", err)
		}
	})
	refusesRetiredShard(t)

	shard := retiredShard(t)
	forEachOpening(t, func(t *testing.T, o opening, _ *Index, valid []byte) {
		copy(valid, shard[:len(fileMagic)])
		reseal(valid)
		if _, err := o.open(t, valid); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("index under the retired shard magic: err = %v, want ErrBadMagic", err)
		}
	})
	relabelled := bytes.Clone(shard)
	copy(relabelled, fileMagic[:])
	reseal(relabelled)
	for _, o := range openings {
		t.Run("shard"+strings.TrimPrefix(o.name, "index"), func(t *testing.T) {
			if _, err := o.open(t, relabelled); err == nil {
				t.Fatal("retired shard file under the index magic loaded")
			}
		})
	}
}

// TestLoadRejectsVersionMismatch: a future revision and the retired format
// 1 are both a clean ErrVersion naming the file's version.
func TestLoadRejectsVersionMismatch(t *testing.T) {
	forEachOpening(t, func(t *testing.T, o opening, ix *Index, valid []byte) {
		binary.LittleEndian.PutUint32(valid[8:], FormatVersion+7)
		reseal(valid)
		if _, err := o.open(t, valid); !errors.Is(err, ErrVersion) {
			t.Fatalf("err = %v, want ErrVersion", err)
		}
		_, err := o.open(t, v1Bytes(t, ix))
		if !errors.Is(err, ErrVersion) || !bytes.Contains([]byte(err.Error()), []byte("version 1")) {
			t.Fatalf("format-1 file: err = %v, want ErrVersion naming version 1", err)
		}
	})
}

// TestLoadRejectsCorruptedPayload: a single flipped bit anywhere — header,
// directory, posting block — never loads. Inside a block it is ErrChecksum
// whenever the block still decodes (load step 3 precedes step 5), and a
// structural decode error otherwise.
func TestLoadRejectsCorruptedPayload(t *testing.T) {
	forEachOpening(t, func(t *testing.T, o opening, _ *Index, valid []byte) {
		payload := headerSize + 8 + 8*4 // three blocks: four directory entries
		checksums := 0
		for at := 9; at < len(valid); at += 7 {
			data := bytes.Clone(valid)
			data[at] ^= 0x02
			_, err := o.open(t, data)
			if err == nil {
				t.Fatalf("bit flip at byte %d accepted", at)
			}
			if errors.Is(err, ErrChecksum) {
				checksums++
			} else if at >= payload && at < len(valid)-4 && !bytes.Contains([]byte(err.Error()), []byte(" block ")) {
				t.Fatalf("bit flip inside a block (byte %d): err = %v, want ErrChecksum or a block decode error", at, err)
			}
		}
		if checksums == 0 {
			t.Fatal("no bit flip was caught by the checksum")
		}
	})
}

// TestLoadRejectsShortFile: truncation inside the header, the directory, a
// posting block or the trailer is a wrapped io.ErrUnexpectedEOF.
func TestLoadRejectsShortFile(t *testing.T) {
	forEachOpening(t, func(t *testing.T, o opening, _ *Index, valid []byte) {
		hs := headerSize
		for _, cut := range []int{0, 5, hs - 1, hs, hs + 8 + 11, hs + 8 + 8*4 + 17, len(valid) / 2, len(valid) - 3} {
			_, err := o.open(t, valid[:cut])
			if err == nil {
				t.Fatalf("load of %d/%d bytes succeeded, want error", cut, len(valid))
			}
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("load of %d bytes: err = %v, want wrapped io.ErrUnexpectedEOF", cut, err)
			}
		}
	})
}

// TestLoadRejectsImplausibleHeader: forged dimensions are refused before
// anything payload-sized is allocated — by the header guards when the
// product overflows, by a truncation error after a proportional read when
// a large-but-plausible claim sits on a short stream, by the block-length
// bound when the claim inflates what a present block decodes to.
func TestLoadRejectsImplausibleHeader(t *testing.T) {
	forEachOpening(t, func(t *testing.T, o opening, _ *Index, valid []byte) {
		rOff := headerSize - 24 // the fingerprint-count field
		forged := bytes.Clone(valid)
		binary.LittleEndian.PutUint64(forged[rOff:], 1<<40)
		reseal(forged)
		if _, err := o.open(t, forged); err == nil || errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("rows*r*k overflow: err = %v, want a header-guard rejection", err)
		}

		// n = 2^29 vertices with one fingerprint passes the guards and
		// claims 2^23 blocks; the stream ends after the first directory
		// entry.
		huge := bytes.Clone(valid[:headerSize+8+8])
		binary.LittleEndian.PutUint64(huge[12:], 1<<29)
		binary.LittleEndian.PutUint64(huge[rOff:], 1)
		binary.LittleEndian.PutUint32(huge[headerSize+4:], 1<<23)
		if _, err := o.open(t, huge); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("forged huge header on a short stream: err = %v, want a truncation error", err)
		}

		// r = 2^21 fingerprints passes the guards too (rows*r*k < 2^33) and
		// makes the first block decode to gigabytes; its real few hundred
		// bytes cannot hold one header byte per walk, so it is refused
		// before that buffer is allocated (found by FuzzLoad: the process
		// died of out-of-memory on a 150-byte shard file).
		wide := bytes.Clone(valid)
		binary.LittleEndian.PutUint64(wide[rOff:], 1<<21)
		reseal(wide)
		if _, err := o.open(t, wide); err == nil || !bytes.Contains([]byte(err.Error()), []byte("implausible")) {
			t.Fatalf("forged fingerprint count over short blocks: err = %v, want an implausible-block-length rejection", err)
		}
	})
}

// TestLoadRejectsOutOfRangePath: a path entry >= n is invalid even with a
// valid checksum — but it is reported last: the same file under a stale
// checksum is ErrChecksum, with a byte after the trailer ErrTrailingData.
func TestLoadRejectsOutOfRangePath(t *testing.T) {
	forEachOpening(t, func(t *testing.T, o opening, ix *Index, _ []byte) {
		// The bad entry sits in the first of three blocks, so the reader has
		// to carry it past two more blocks and the trailer.
		paths := make([]int32, 0, ix.Width()*ix.r*ix.k)
		for v := 0; v < ix.Width(); v++ {
			paths = append(paths, ix.denseRow(v, nil)...)
		}
		paths[2*ix.k] = 1_000_000
		bad := newIndex(ix.n, ix.lo, ix.hi, ix.k, ix.r, ix.c, ix.seed, buildRagged(newDenseStore(paths, ix.r, ix.k), v2BlockShift))
		data := saveBytes(t, bad)

		_, err := o.open(t, data)
		if err == nil || errors.Is(err, ErrChecksum) || !bytes.Contains([]byte(err.Error()), []byte("out of range")) {
			t.Fatalf("out-of-range entry: err = %v, want a range error", err)
		}
		stale := bytes.Clone(data)
		stale[len(stale)-9] ^= 0x01 // last block, CRC not resealed
		if _, err := o.open(t, stale); !errors.Is(err, ErrChecksum) {
			t.Fatalf("out-of-range entry under a stale checksum: err = %v, want ErrChecksum", err)
		}
		if _, err := o.open(t, append(bytes.Clone(data), 0)); !errors.Is(err, ErrTrailingData) {
			t.Fatalf("out-of-range entry before a trailing byte: err = %v, want ErrTrailingData", err)
		}
	})
}

// TestLoadRejectsTrailingData: bytes after the CRC trailer are a
// concatenated or overlong file, not slack.
func TestLoadRejectsTrailingData(t *testing.T) {
	forEachOpening(t, func(t *testing.T, o opening, _ *Index, valid []byte) {
		if _, err := o.open(t, append(bytes.Clone(valid), 0xEE)); !errors.Is(err, ErrTrailingData) {
			t.Fatalf("load with a trailing byte = %v, want ErrTrailingData", err)
		}
		if _, err := o.open(t, append(bytes.Clone(valid), valid...)); !errors.Is(err, ErrTrailingData) {
			t.Fatalf("load of two concatenated files = %v, want ErrTrailingData", err)
		}
	})
}

// TestParentWrittenFilesLoad is the compatibility gate of the one-reader
// refactor: testdata/parent holds an index file and a shard file (range
// [10, 120)) written by the parent of that refactor, when a full index and
// a shard were still two types, on gen.WebGraph(130, 5, 7), Options{C:
// 0.7, K: 6, Walks: 8, Seed: 42}, and the answers that commit's code gave
// over them. Through every opening the index file must load, equal a
// fresh build, re-save to the same bytes, and answer every query family
// with the recorded bits (JSON round-trips float64 exactly). The shard
// file's layout is retired: every opening refuses it with ErrBadMagic
// (shard-decoded, shard-mapped), and its recorded answers are checked
// against the range built in memory, Build(g, opt, 10, 120).
func TestParentWrittenFilesLoad(t *testing.T) {
	var want struct {
		SingleSource []float64   `json:"single_source_3"`
		Partial      [][]float64 `json:"shard_multi_source_3_77_20"`
		Join         []JoinPair  `json:"join_k40_theta0.05"`
		JoinPairs    []float64   `json:"index_pair_of_each_join_pair"`
		ShardPairs   []float64   `json:"shard_pair_of_each_join_pair"`
	}
	js, err := os.ReadFile("testdata/parent/parent-v2.answers.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(js, &want); err != nil {
		t.Fatal(err)
	}

	g := gen.WebGraph(130, 5, 7)
	opt := Options{C: 0.7, K: 6, Walks: 8, Seed: 42}
	ctx := context.Background()
	// answers checks ix, over [0, 130) or [10, 120), against the parent's.
	answers := func(t *testing.T, ix *Index) {
		t.Helper()
		full := ix.Lo() == 0
		// The shard's three sources: one foreign below, two owned.
		for i, row := range msRows(t, ix, g, []int{3, 77, 20}, 2) {
			if full { // the shard rows are the [10,120) slice of the full ones
				row = row[10:120]
			}
			if !slices.Equal(row, want.Partial[i]) {
				t.Fatalf("row %d differs from the parent's MultiSource", i)
			}
		}
		wantPairs := want.ShardPairs
		if full {
			wantPairs = want.JoinPairs
			if !slices.Equal(ssRow(t, ix, 3), want.SingleSource) {
				t.Fatal("row of 3 differs from the parent's SingleSource(3)")
			}
		}
		for i, p := range want.Join {
			if got := ix.Pair(g, p.A, p.B); got != wantPairs[i] {
				t.Fatalf("Pair(%d,%d) = %v, parent said %v", p.A, p.B, got, wantPairs[i])
			}
		}
		// The full index joins alone; the shard runs the same pipeline
		// over its rows plus recomputed foreign ones.
		join, err := ix.Join(ctx, g, 40, 0.05, 1<<20, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(join, want.Join) {
			t.Fatal("Join differs from the parent's")
		}
	}

	data, err := os.ReadFile("testdata/parent/parent-v2.idx")
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Build(g, opt, 0, 130)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range openings {
		t.Run(o.name, func(t *testing.T) {
			ix, err := o.open(t, data)
			if err != nil {
				t.Fatal(err)
			}
			if !ix.Equal(fresh) {
				t.Fatal("parent-written file differs from a fresh build")
			}
			if !bytes.Equal(saveBytes(t, ix), data) {
				t.Fatal("parent-written file does not re-save byte-identically")
			}
			attach(t, ix, g)
			answers(t, ix)
		})
	}
	refusesRetiredShard(t)
	t.Run("shard-in-memory", func(t *testing.T) {
		ix, err := Build(g, opt, 10, 120)
		if err != nil {
			t.Fatal(err)
		}
		answers(t, ix)
	})
}
