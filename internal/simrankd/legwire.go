package simrankd

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"oipsr/internal/sparserow"
)

// The body of a POST /shard/v1/scores response: one sparse partial row per
// requested source, binary, specified byte by byte in docs/API.md. Only
// ShardServer.handleScores writes it and only fleetSource.rows reads it;
// router and shards ship as one binary, so there is one version and no
// negotiation — a leg in any other format fails the magic check and
// degrades the answer.
//
//	"SRLG" 0x01
//	uvarint lo, hi, generation, rows
//	rows × { uvarint count
//	         count × uvarint id delta   (first: id-lo; then: id-previous, >= 1)
//	         count × float64 bits, little-endian }
//
// Every uvarint is minimal-length, so a body has exactly one encoding and
// encode(decode(b)) == b for every accepted b.
const (
	legMagic   = "SRLG"
	legVersion = 1
	// legEntryBytes is the least an entry can take: a one-byte delta and its
	// score. A count is checked against the bytes present through it before
	// anything is sized by it.
	legEntryBytes = 1 + 8
)

// appendLeg appends the leg body for rows — sorted global vertex ids inside
// [lo, hi) — to dst.
func appendLeg(dst []byte, lo, hi int, gen uint64, rows []*sparserow.Row) []byte {
	dst = append(dst, legMagic...)
	dst = append(dst, legVersion)
	dst = binary.AppendUvarint(dst, uint64(lo))
	dst = binary.AppendUvarint(dst, uint64(hi))
	dst = binary.AppendUvarint(dst, gen)
	dst = binary.AppendUvarint(dst, uint64(len(rows)))
	for _, r := range rows {
		dst = binary.AppendUvarint(dst, uint64(len(r.IDs)))
		prev := int32(lo)
		for _, id := range r.IDs {
			dst = binary.AppendUvarint(dst, uint64(id-prev))
			prev = id
		}
		for _, s := range r.Scores {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s))
		}
	}
	return dst
}

// maxLegBytes is the size of the largest well-formed leg for this many
// sources over this many owned vertices: the cap a leg body is read through.
func maxLegBytes(sources, width int) int64 {
	const header = int64(len(legMagic) + 1 + 4*binary.MaxVarintLen64)
	return header + int64(sources)*(binary.MaxVarintLen64+int64(width)*(binary.MaxVarintLen32+8))
}

// legRows is one decoded leg: the rows' entries end to end, row s being
// entries ends[s-1]:ends[s]. Reused across legs through legPool.
type legRows struct {
	ids    []int32
	scores []float64
	ends   []int
}

// row returns a view of row s, valid until the next decode.
func (l *legRows) row(s int) sparserow.Row {
	from := 0
	if s > 0 {
		from = l.ends[s-1]
	}
	return sparserow.Row{IDs: l.ids[from:l.ends[s]], Scores: l.scores[from:l.ends[s]]}
}

var (
	errLegMalformed = errors.New("malformed shard leg")
	errLegUvarint   = fmt.Errorf("%w: truncated, oversized or padded uvarint", errLegMalformed)
)

// legUvarint reads one minimal-length uvarint off the front of p.
func legUvarint(p []byte) (uint64, []byte, error) {
	v, w := binary.Uvarint(p)
	if w <= 0 || (w > 1 && p[w-1] == 0) {
		return 0, nil, errLegUvarint
	}
	return v, p[w:], nil
}

// decode parses a leg body into l, validating it whole: magic and version,
// lo <= hi, the row count and every entry count against the bytes actually
// present, ids strictly ascending inside [lo, hi), no trailing bytes. On
// error l holds nothing usable. What it allocates is bounded by the body:
// 12 bytes per 9 of entries, 8 per row.
func (l *legRows) decode(body []byte) (lo, hi int, gen uint64, err error) {
	if len(body) < len(legMagic)+1 || string(body[:len(legMagic)]) != legMagic {
		return 0, 0, 0, fmt.Errorf("%w: bad magic", errLegMalformed)
	}
	if v := body[len(legMagic)]; v != legVersion {
		return 0, 0, 0, fmt.Errorf("%w: version %d, this build speaks %d", errLegMalformed, v, legVersion)
	}
	p := body[len(legMagic)+1:]
	var hdr [4]uint64 // lo, hi, generation, rows
	for i := range hdr {
		if hdr[i], p, err = legUvarint(p); err != nil {
			return 0, 0, 0, err
		}
	}
	if hdr[0] > hdr[1] || hdr[1] > math.MaxInt32 {
		return 0, 0, 0, fmt.Errorf("%w: range [%d,%d)", errLegMalformed, hdr[0], hdr[1])
	}
	lo, hi, gen = int(hdr[0]), int(hdr[1]), hdr[2]
	if hdr[3] > uint64(len(p)) { // a row is at least its count byte
		return 0, 0, 0, fmt.Errorf("%w: %d rows in %d bytes", errLegMalformed, hdr[3], len(p))
	}
	rows := int(hdr[3])
	// Sized once, by the bytes present rather than by any count they claim.
	l.ids = slices.Grow(l.ids[:0], len(p)/legEntryBytes)
	l.scores = slices.Grow(l.scores[:0], len(p)/legEntryBytes)
	l.ends = slices.Grow(l.ends[:0], rows)
	for s := 0; s < rows; s++ {
		var count uint64
		if count, p, err = legUvarint(p); err != nil {
			return 0, 0, 0, err
		}
		if count > uint64(hi-lo) || count > uint64(len(p)/legEntryBytes) {
			return 0, 0, 0, fmt.Errorf("%w: row %d claims %d entries", errLegMalformed, s, count)
		}
		prev := int64(lo)
		for i := uint64(0); i < count; i++ {
			var d uint64
			if d, p, err = legUvarint(p); err != nil {
				return 0, 0, 0, err
			}
			if (i > 0 && d == 0) || d >= uint64(int64(hi)-prev) {
				return 0, 0, 0, fmt.Errorf("%w: row %d leaves [%d,%d) or does not ascend", errLegMalformed, s, lo, hi)
			}
			prev += int64(d)
			l.ids = append(l.ids, int32(prev))
		}
		if uint64(len(p)) < 8*count {
			return 0, 0, 0, fmt.Errorf("%w: row %d scores truncated", errLegMalformed, s)
		}
		for i := uint64(0); i < count; i++ {
			l.scores = append(l.scores, math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:])))
		}
		p = p[8*count:]
		l.ends = append(l.ends, len(l.ids))
	}
	if len(p) != 0 {
		return 0, 0, 0, fmt.Errorf("%w: %d trailing bytes", errLegMalformed, len(p))
	}
	return lo, hi, gen, nil
}
