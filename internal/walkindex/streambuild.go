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
// vertices into slices of whole posting blocks sized to a caller-supplied
// byte budget, generates each slice with Build's own loop (walkStore), and
// hands it to the one file writer (fileWriter.addStore), which encodes its
// blocks on the build's workers. Peak memory is one slice's live prefixes,
// in one exactly sized chunk a block, plus per worker one vertex's dense
// walks and one block's scratch, the writer's window of encoded blocks,
// and its 8 B of directory a block — never the whole index. A slice never
// cuts a block, so no state crosses from one slice to the next, and the
// file is Save's on a materialized Build of the same graph, byte for
// byte: the walk hash makes any vertex range computable independently,
// and the block encoder and the writer are Save's own.

// StreamStats reports what a streaming build wrote.
type StreamStats struct {
	// Bytes is the total file size, CRC trailer included.
	Bytes int64

	// SliceVertices is the generation slice width the budget resolved to,
	// and Slices the number of slices generated.
	SliceVertices int
	Slices        int
}

// BuildStreaming builds the walk index of g and writes it through w as an
// index file, generating walks in slices of whole posting blocks whose
// dense walks, 4·R·K bytes a vertex, fit in budgetBytes — the slice keeps
// only their live prefixes — instead of materializing the whole index. The
// bytes written are identical to Save(w) on Build(g, opt, 0, n) — for any
// budget and any worker count — so files from the two paths are
// interchangeable, byte for byte. A budget below one block's 64·4·R·K
// bytes degrades to one-block slices rather than failing.
func BuildStreaming(g *graph.Graph, opt Options, w io.WriterAt, budget int64) (*StreamStats, error) {
	if err := opt.resolve(); err != nil {
		return nil, err
	}
	if budget < 1 {
		return nil, fmt.Errorf("walkindex: streaming build budget %d bytes, want >= 1", budget)
	}
	n := g.NumVertices()
	hdr, err := writableHeader(n, 0, n, opt.K, opt.Walks, opt.C, opt.Seed)
	if err != nil {
		return nil, err
	}
	st := &StreamStats{SliceVertices: streamSliceVertices(budget, opt.Walks*opt.K, n)}
	fw := newFileWriter(w, hdr, v2BlockVertices)
	for lo := 0; lo < n; lo += st.SliceVertices {
		st.Slices++
		if err := fw.addStore(walkStore(g, opt, lo, min(lo+st.SliceVertices, n)), opt.Workers); err != nil {
			return nil, err
		}
	}
	if st.Bytes, _, err = fw.finish(); err != nil {
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
