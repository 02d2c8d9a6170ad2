package walkindex

import (
	"fmt"
	"io"

	"oipsr/graph"
)

// Out-of-core streaming builds.
//
// Build holds every walk of its range in memory (the ragged live
// prefixes) before anything reaches disk, which caps the graphs it can
// index at available memory. BuildStreaming removes that cap: it cuts the
// range into slices of whole posting blocks sized to a caller-supplied
// byte budget, generates each slice with Build's own loop (walkStore), and
// hands it to the one file writer (fileWriter.addStore), which encodes its
// blocks on the build's workers. Peak memory is one slice's live prefixes,
// in one exactly sized chunk a block, plus per worker one vertex's dense
// walks and one block's scratch, the writer's window of encoded blocks,
// and its 8 B of directory a block — never the whole range. A slice never
// cuts a block, so no state crosses from one slice to the next, and the
// file is Save's on a materialized Build of the same range, byte for
// byte: the walk hash makes any vertex range computable independently,
// and the block encoder and the writer are Save's own.

// StreamStats reports what a streaming build wrote, with the resolved
// build parameters (defaults filled, K derived from Eps) so callers can
// record what was actually built — shard.BuildAll builds its
// manifest entries from them.
type StreamStats struct {
	// Rows is the number of start vertices written, hi-lo.
	Rows  int
	K     int
	Walks int
	C     float64
	Seed  int64

	// Bytes is the total file size, CRC trailer included.
	Bytes int64
	// CRC32 is the trailer checksum — the CRC-32 (IEEE) of every byte
	// before the trailer, which is also the value a shard manifest records
	// for the file.
	CRC32 uint32

	// SliceVertices is the generation slice width the budget resolved to,
	// and Slices the number of slices generated.
	SliceVertices int
	Slices        int
}

// BuildStreaming builds the walk index of vertex range [lo, hi) of g and
// writes it through w as a file of the given kind, generating walks in
// slices of whole posting blocks whose dense walks, 4·R·K bytes a vertex,
// fit in budgetBytes — the slice keeps only their live prefixes — instead
// of materializing the whole index. The bytes written are
// identical to Save(w, kind) on Build(g, opt, lo, hi) — for any budget and
// any worker count — so files from the two paths are interchangeable,
// byte for byte. A budget below one block's 64·4·R·K bytes degrades to
// one-block slices rather than failing.
func BuildStreaming(g *graph.Graph, opt Options, lo, hi int, kind FileKind, w io.WriterAt, budget int64) (*StreamStats, error) {
	if err := opt.resolve(); err != nil {
		return nil, err
	}
	if budget < 1 {
		return nil, fmt.Errorf("walkindex: streaming %s build budget %d bytes, want >= 1", kind, budget)
	}
	hdr, err := writableHeader(kind, g.NumVertices(), lo, hi, opt.K, opt.Walks, opt.C, opt.Seed)
	if err != nil {
		return nil, err
	}
	rows := hi - lo
	st := &StreamStats{Rows: rows, K: opt.K, Walks: opt.Walks, C: opt.C, Seed: opt.Seed,
		SliceVertices: streamSliceVertices(budget, opt.Walks*opt.K, rows)}
	fw := newFileWriter(w, hdr, v2BlockVertices)
	for slo := 0; slo < rows; slo += st.SliceVertices {
		st.Slices++
		slice := walkStore(g, opt, lo+slo, lo+min(slo+st.SliceVertices, rows))
		if err := fw.addStore(slice, opt.Workers); err != nil {
			return nil, err
		}
	}
	if st.Bytes, st.CRC32, err = fw.finish(); err != nil {
		return nil, err
	}
	return st, nil
}

// streamSliceVertices resolves the byte budget to a slice width in
// vertices: as many whole posting blocks of rows of 4*stride bytes as fit,
// at least one, and no more than the range has.
func streamSliceVertices(budget int64, stride, rows int) int {
	blocks := budget / (4 * int64(stride) * v2BlockVertices)
	blocks = min(blocks, v2NumBlocks(int64(rows), v2BlockVertices))
	return int(max(blocks, 1)) * v2BlockVertices
}
