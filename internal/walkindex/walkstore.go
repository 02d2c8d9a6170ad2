package walkindex

import "slices"

// The resident path store: live prefixes, not -1.
//
// walkFrom writes -1 from a walk's first death onward, and on the graphs
// this index serves most walks die early: on a web graph two vertices in
// three have an empty in-set, so every walk they start is dead before its
// first step, and 97% of a dense r·k block is -1. The resident store keeps
// only what lives — the form the v2 file already encodes:
//
//   - seg, one offset per (vertex, group): where the group's segment
//     starts in the vertex's chunk (below), or -1 when every walk of the
//     group is dead at step 1;
//   - a live group's segment opens with a header of ceil(G/2) words that
//     packs G uint16 end offsets — walk i's positions run from e(i-1) (0
//     for the first walk) to e(i), counted from the end of the header;
//   - the concatenated live positions follow the header.
//
// A group is G consecutive walks of one vertex, with G = R whenever
// R·K < 2¹⁶: then the 2-byte end offsets are relative to the vertex and a
// vertex is one segment. A larger R·K cannot overflow them, because G
// shrinks to ⌊(2¹⁶−1)/K⌋ and a vertex becomes ⌈R/G⌉ groups. That is the
// same code with more groups per vertex, not a wider offset or a second
// layout.
//
// Readers see a walk through row(v).walk(fp): a live prefix, where an entry
// past the end of the slice counts as -1. A foreign vertex's walks,
// recomputed into a dense block, hand out k entries with their -1 tail,
// which is the same contract.
//
// The rows are cut into chunks, one per posting block of v2BlockVertices
// stored vertices — the unit of Build and of every file this package
// writes; a file of another block size loads into chunks of the largest
// power of two of vertices that tiles its blocks — and each chunk is one
// exactly sized array of its vertices' segments: seg offsets count from
// the start of the vertex's chunk, and row(v) reads chunks[v>>shift]. Build generates a
// block into a reused scratch and copies it out; the reader decodes a
// block straight into an array sized from its live lengths. So no path
// regrows an array of the whole index, and blocks fill on separate
// workers.
//
// Repair cannot lengthen a walk in place. rewrite hands each repaired walk
// out padded to k entries, then overwrites a group whose walks keep their
// live lengths, and otherwise writes the group afresh at the tail of its
// vertex's chunk (the chunk's arena) and leaves the old segment dead. Once
// dead words outnumber live ones in a chunk, compact rewrites that chunk
// in (vertex, group) order, which is the layout a fresh build of the same
// walks has. Bytes counts the dead words until then.

// maxGroupEnd is the largest end offset a header entry holds.
const maxGroupEnd = 1<<16 - 1

// raggedStore holds an index's walks: Build, Load and every shard range
// keep them in one.
type raggedStore struct {
	r, k   int
	group  int       // walks per group
	groups int       // groups per vertex, ⌈r/group⌉
	shift  int       // a chunk holds 1<<shift stored vertices
	seg    []int64   // (vertex, group) → segment offset in its chunk, -1 if all dead
	chunks [][]int32 // per chunk: its vertices' segments, header then live positions
	dead   []int     // per chunk: words no seg points into
}

// newRaggedStore returns a store for rows vertices of r walks of horizon k
// each, in chunks of 1<<shift vertices, with no walks written yet: every
// chunk must be filled (fillChunk, setChunk) before it is read.
func newRaggedStore(r, k, shift, rows int) *raggedStore {
	group := min(r, maxGroupEnd/k)
	s := &raggedStore{r: r, k: k, group: group, groups: (r + group - 1) / group, shift: shift}
	s.grow(rows)
	return s
}

// grow extends the store to rows vertices.
func (s *raggedStore) grow(rows int) {
	nc := (rows + 1<<s.shift - 1) >> s.shift
	s.seg = slices.Grow(s.seg, rows*s.groups-len(s.seg))[:rows*s.groups]
	s.chunks = slices.Grow(s.chunks, nc-len(s.chunks))[:nc]
	s.dead = slices.Grow(s.dead, nc-len(s.dead))[:nc]
}

// chunkSpan returns the stored vertices [lo, hi) of chunk c.
func (s *raggedStore) chunkSpan(c int) (lo, hi int) {
	return c << s.shift, min((c+1)<<s.shift, s.Rows())
}

// walkRow is one vertex's R walks as every reader sees them: a dense block
// of r·k entries with -1 tails (a foreign vertex recomputed by walkFrom)
// when seg is nil, otherwise the vertex's group offsets into its chunk of
// a ragged store.
type walkRow struct {
	data  []int32
	seg   []int64
	k     int // dense: entries per walk
	group int // ragged: walks per group
}

// walk returns the read-only positions of the vertex's fingerprint-fp
// walker after steps 1, 2, …; an entry past the end counts as -1.
func (w walkRow) walk(fp int) []int32 {
	if w.seg == nil {
		return w.data[fp*w.k : (fp+1)*w.k]
	}
	g, i := 0, fp
	if fp >= w.group { // only when R·K ≥ 2¹⁶: spare the division otherwise
		g, i = fp/w.group, fp%w.group
	}
	at := int(w.seg[g])
	if at < 0 {
		return nil
	}
	body := at + (w.group+1)/2
	start, end := body, body+groupEnd(w.data, at, i)
	if i > 0 {
		start += groupEnd(w.data, at, i-1)
	}
	return w.data[start:end:end]
}

// groupEnd reads end offset i of the group header at data[at].
func groupEnd(data []int32, at, i int) int {
	return int((uint32(data[at+i/2]) >> (16 * (i % 2))) & maxGroupEnd)
}

// livePrefix trims a walk to the entries before its first -1.
func livePrefix(w []int32) []int32 {
	for i, p := range w {
		if p < 0 {
			return w[:i]
		}
	}
	return w
}

// entry is position t of a walk under the seam's contract: -1 past its
// end.
func entry(w []int32, t int) int32 {
	if t < len(w) {
		return w[t]
	}
	return -1
}

func (s *raggedStore) row(v int) walkRow {
	return walkRow{data: s.chunks[v>>s.shift], seg: s.seg[v*s.groups : (v+1)*s.groups], group: s.group}
}

// walks appends vertex v's r walks to dst in fingerprint order, each as
// row(v).walk(fp) returns it, reading every group header once.
func (s *raggedStore) walks(v int, dst [][]int32) [][]int32 {
	data := s.chunks[v>>s.shift]
	for g, at := range s.seg[v*s.groups : (v+1)*s.groups] {
		lo, hi := s.span(g)
		if at < 0 {
			for range hi - lo {
				dst = append(dst, nil)
			}
			continue
		}
		body, start := int(at)+(s.group+1)/2, 0
		for i := range hi - lo {
			end := groupEnd(data, int(at), i)
			dst = append(dst, data[body+start:body+end:body+end])
			start = end
		}
	}
	return dst
}

// span returns the fingerprints [lo, hi) of group g.
func (s *raggedStore) span(g int) (lo, hi int) {
	return g * s.group, min((g+1)*s.group, s.r)
}

// appendGroup writes the walks lo..hi-1 that walkOf returns, each its live
// prefix exactly, as one segment at the tail of data, a chunk's segments,
// and returns data and the segment's offset, or -1 without writing when
// all are dead.
func (s *raggedStore) appendGroup(data []int32, lo, hi int, walkOf func(fp int) []int32) ([]int32, int64) {
	live := 0
	for fp := lo; fp < hi; fp++ {
		live += len(walkOf(fp))
	}
	if live == 0 {
		return data, -1
	}
	at, hw := len(data), (s.group+1)/2
	data = slices.Grow(data, hw+live)[:at+hw]
	clear(data[at:])
	end := 0
	for fp := lo; fp < hi; fp++ {
		w := walkOf(fp)
		data = append(data, w...)
		end += len(w)
		i := fp - lo
		data[at+i/2] |= int32(uint32(end) << (16 * (i % 2)))
	}
	return data, int64(at)
}

// appendVertex appends vertex v's walks to data, the segments of v's
// chunk so far, and points v's offsets at them. The walks come as an r·k
// block (walkFrom's and the codec's form) with the live length of each
// walk, which whoever produced the walks knows: only that many entries of
// a walk are read.
func (s *raggedStore) appendVertex(data []int32, v int, block []int32, lives []int) []int32 {
	for g := 0; g < s.groups; g++ {
		lo, hi := s.span(g)
		data, s.seg[v*s.groups+g] = s.appendGroup(data, lo, hi, func(fp int) []int32 { return block[fp*s.k : fp*s.k+lives[fp]] })
	}
	return data
}

// vertexWords is the length in words of the segments appendVertex writes
// for walks of the given live lengths.
func (s *raggedStore) vertexWords(lives []int) int {
	words := 0
	for g := 0; g < s.groups; g++ {
		lo, hi := s.span(g)
		live := 0
		for _, l := range lives[lo:hi] {
			live += l
		}
		if live > 0 {
			words += (s.group+1)/2 + live
		}
	}
	return words
}

// fillChunk stores chunk c from block and lives, the r·k walks and the r
// live lengths of each of its vertices in order, into one array sized
// from the live lengths: the reader's path, which decodes a block whole.
func (s *raggedStore) fillChunk(c int, block []int32, lives []int) {
	lo, hi := s.chunkSpan(c)
	stride := s.r * s.k
	words := 0
	for i := range hi - lo {
		words += s.vertexWords(lives[i*s.r : (i+1)*s.r])
	}
	data := make([]int32, 0, words)
	for i := range hi - lo {
		data = s.appendVertex(data, lo+i, block[i*stride:(i+1)*stride], lives[i*s.r:(i+1)*s.r])
	}
	s.chunks[c] = data
}

// setChunk stores an exactly sized copy of data, the segments appendVertex
// wrote for every vertex of chunk c into a reused scratch: Build's path,
// which generates a block one vertex at a time.
func (s *raggedStore) setChunk(c int, data []int32) {
	s.chunks[c] = append(make([]int32, 0, len(data)), data...)
}

// segLen is the length in words of the live segment at data[at] holding
// walks walks.
func (s *raggedStore) segLen(data []int32, at, walks int) int {
	return (s.group+1)/2 + groupEnd(data, at, walks-1)
}

// rewrite hands fix each walk padded to k entries and stores the results
// with setWalks.
func (s *raggedStore) rewrite(v int, fps []int, fix func(j int, path []int32)) {
	paths := make([]int32, len(fps)*s.k)
	row := s.row(v)
	for j, fp := range fps {
		path := paths[j*s.k : (j+1)*s.k]
		for t := copy(path, row.walk(fp)); t < s.k; t++ {
			path[t] = -1
		}
		fix(j, path)
	}
	s.setWalks(v, fps, paths)
}

// setWalks replaces the walks fps (ascending) of store-local vertex v with
// paths, k entries per walk with -1 tails: in place when every touched
// group keeps its live lengths, at the tail of v's chunk otherwise.
func (s *raggedStore) setWalks(v int, fps []int, paths []int32) {
	c := v >> s.shift
	for len(fps) > 0 {
		g := fps[0] / s.group
		lo, hi := s.span(g)
		n := 1
		for n < len(fps) && fps[n] < hi {
			n++
		}
		mine, fresh := fps[:n], paths[:n*s.k]
		old := s.row(v)
		walkOf := func(fp int) []int32 {
			if j, ok := slices.BinarySearch(mine, fp); ok {
				return livePrefix(fresh[j*s.k : (j+1)*s.k])
			}
			return old.walk(fp)
		}
		inPlace := true
		for _, fp := range mine {
			inPlace = inPlace && len(walkOf(fp)) == len(old.walk(fp))
		}
		gi := v*s.groups + g
		switch at := int(s.seg[gi]); {
		case inPlace:
			for _, fp := range mine {
				copy(old.walk(fp), walkOf(fp))
			}
		case at >= 0:
			s.dead[c] += s.segLen(old.data, at, hi-lo)
			fallthrough
		default:
			s.chunks[c], s.seg[gi] = s.appendGroup(s.chunks[c], lo, hi, walkOf)
		}
		fps, paths = fps[n:], paths[n*s.k:]
	}
	if 2*s.dead[c] > len(s.chunks[c]) {
		s.compact(c)
	}
}

// compact drops chunk c's dead segments: the live ones are copied in
// (vertex, group) order into an exactly sized array.
func (s *raggedStore) compact(c int) {
	old := s.chunks[c]
	data := make([]int32, 0, len(old)-s.dead[c])
	lo, hi := s.chunkSpan(c)
	for gi := lo * s.groups; gi < hi*s.groups; gi++ {
		at := int(s.seg[gi])
		if at < 0 {
			continue
		}
		glo, ghi := s.span(gi % s.groups)
		s.seg[gi] = int64(len(data))
		data = append(data, old[at:at+s.segLen(old, at, ghi-glo)]...)
	}
	s.chunks[c], s.dead[c] = data, 0
}

// Rows returns the number of stored start vertices.
func (s *raggedStore) Rows() int { return len(s.seg) / s.groups }

// Bytes is the layout: 8 bytes per (vertex, group) offset and 4 per word
// of the chunks — headers, live positions, and the arenas' dead words.
func (s *raggedStore) Bytes() int64 {
	words := 0
	for _, data := range s.chunks {
		words += len(data)
	}
	return 8*int64(len(s.seg)) + 4*int64(words)
}
