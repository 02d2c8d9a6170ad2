package simrankd

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"testing"

	"oipsr/internal/sparserow"
)

// legSeed is a well-formed three-row leg of range [40, 80): a few entries,
// an empty row, entries on both edges of the range.
func legSeed() []byte {
	rows := []*sparserow.Row{
		{IDs: []int32{41, 42, 79}, Scores: []float64{0.25, 1, 1e-300}},
		{},
		{IDs: []int32{40}, Scores: []float64{math.Float64frombits(0x7ff8000000000001)}}, // a NaN payload survives
	}
	return appendLeg(nil, 40, 80, 7, rows)
}

// legHeader hand-encodes a leg header for the forged cases.
func legHeader(magic string, version byte, lo, hi, gen, rows uint64) []byte {
	b := append([]byte(magic), version)
	for _, v := range []uint64{lo, hi, gen, rows} {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// forgedLegs are bodies decode must refuse, each for the reason named —
// above all without sizing anything by a field the bytes do not back (a
// 20-byte body claiming 2^40 entries once cost another parser 28 GB).
func forgedLegs() map[string][]byte {
	good := legSeed()
	oneEntry := func(delta uint64) []byte { // row of one entry at lo+delta
		b := binary.AppendUvarint(legHeader(legMagic, legVersion, 40, 80, 7, 1), 1)
		b = binary.AppendUvarint(b, delta)
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(0.5))
	}
	twoEntries := func(d1, d2 uint64) []byte {
		b := binary.AppendUvarint(legHeader(legMagic, legVersion, 40, 80, 7, 1), 2)
		b = binary.AppendUvarint(binary.AppendUvarint(b, d1), d2)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(0.5))
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(0.25))
	}
	shortrow, _ := forgeLastCount(good, func(c uint64) uint64 { return c + 1 })
	bigcount, _ := forgeLastCount(good, func(uint64) uint64 { return 1 << 40 })
	return map[string][]byte{
		"empty":             {},
		"json":              []byte(`{"lo":40,"hi":80,"generation":7,"rows":[[0,0.5]]}`),
		"wrong magic":       legHeader("SRLH", legVersion, 40, 80, 7, 0),
		"wrong version":     legHeader(legMagic, legVersion+1, 40, 80, 7, 0),
		"lo above hi":       legHeader(legMagic, legVersion, 80, 40, 7, 0),
		"hi past int32":     legHeader(legMagic, legVersion, 0, 1<<31, 7, 0),
		"truncated header":  good[:7],
		"truncated ids":     good[:len(good)-26],
		"truncated scores":  good[:len(good)-3],
		"trailing byte":     append(slices.Clone(good), 0),
		"forged row count":  legHeader(legMagic, legVersion, 40, 80, 7, 1<<40),
		"rows but no bytes": legHeader(legMagic, legVersion, 40, 80, 7, 3),
		"forged count":      bigcount,
		"count one over":    shortrow,
		"count over width":  binary.AppendUvarint(legHeader(legMagic, legVersion, 40, 42, 7, 1), 3),
		"id at hi":          oneEntry(40),
		"id far out":        oneEntry(1 << 50),
		"ids equal":         twoEntries(5, 0),
		"ids overflow":      twoEntries(5, math.MaxUint64),
		// lo = 40 spelled in two bytes: a second encoding of an accepted body.
		"padded uvarint": append([]byte(legMagic), legVersion, 0x80|40, 0x00, 80, 7, 0),
	}
}

func legBytes(l *legRows) int {
	return 4*cap(l.ids) + 8*cap(l.scores) + 8*cap(l.ends)
}

// checkLeg is the property both the table and the fuzzer assert: decode
// never panics; what it allocates is a small multiple of the body, accepted
// or not; and an accepted body is exactly what its rows encode to.
func checkLeg(t *testing.T, body []byte) error {
	t.Helper()
	var leg legRows
	lo, hi, gen, err := leg.decode(body)
	if got, limit := legBytes(&leg), 12*len(body)+256; got > limit {
		t.Fatalf("decoding %d bytes allocated %d for rows (limit %d): sized by a claim, not by the bytes", len(body), got, limit)
	}
	if err != nil {
		if !errors.Is(err, errLegMalformed) {
			t.Fatalf("decode error %v does not wrap errLegMalformed", err)
		}
		return err
	}
	rows := make([]*sparserow.Row, len(leg.ends))
	for s := range rows {
		row := leg.row(s)
		rows[s] = &row
		for i, id := range row.IDs {
			if int(id) < lo || int(id) >= hi || (i > 0 && id <= row.IDs[i-1]) {
				t.Fatalf("accepted row %d holds id %d outside [%d,%d) or out of order: %v", s, id, lo, hi, row.IDs)
			}
		}
	}
	if again := appendLeg(nil, lo, hi, gen, rows); !bytes.Equal(again, body) {
		t.Fatalf("encode(decode(b)) != b:\n   b %x\nagain %x", body, again)
	}
	return nil
}

func TestLegRoundTripAndForgeries(t *testing.T) {
	if err := checkLeg(t, legSeed()); err != nil {
		t.Fatalf("well-formed leg refused: %v", err)
	}
	if err := checkLeg(t, appendLeg(nil, 0, 0, 0, nil)); err != nil {
		t.Fatalf("empty leg of an empty range refused: %v", err)
	}
	for name, body := range forgedLegs() {
		if checkLeg(t, body) == nil {
			t.Errorf("%s: accepted %x", name, body)
		}
	}
	// The cap a leg is read through admits the densest answer there is.
	full := &sparserow.Row{}
	for v := int32(0); v < 300; v++ {
		full.Append(math.MaxInt32-300+v, 1)
	}
	body := appendLeg(nil, math.MaxInt32-300, math.MaxInt32, math.MaxUint64, []*sparserow.Row{full, full})
	if limit := maxLegBytes(2, 300); int64(len(body)) > limit {
		t.Fatalf("a full 2x300 leg is %d bytes, over its own cap %d", len(body), limit)
	}
	if err := checkLeg(t, body); err != nil {
		t.Fatal(err)
	}
}

// FuzzShardRows feeds the leg parser arbitrary bytes; the committed corpus
// (testdata/fuzz/FuzzShardRows) holds the seed leg and every forgery above.
func FuzzShardRows(f *testing.F) {
	f.Add(legSeed())
	f.Fuzz(func(t *testing.T, body []byte) {
		checkLeg(t, body)
	})
}
