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
// live lengths. Otherwise it splices the group into a scratch it keeps:
// each run of unchanged walks is copied whole from the old segment and
// their header offsets shift in one pass. The new segment goes over the
// old one when it is no longer, and the difference is dead; otherwise it
// goes to the tail of its vertex's chunk (the chunk's arena) and the whole
// old segment is dead. Once warm, neither step allocates but the arena's
// growth. Once dead words outnumber live ones in a chunk, compact rewrites
// that chunk in (vertex, group) order, which is the layout a fresh build
// of the same walks has. Bytes counts the dead words until then.

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

	fixBuf, segBuf []int32 // rewrite's padded walks and setGroup's spliced segment, reused
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

// appendVertex appends vertex v's walks to data, the segments of v's
// chunk so far, and points v's offsets at them. The walks come as an r·k
// block (walkFrom's and the codec's form) with the live length of each
// walk, which whoever produced the walks knows: only that many entries of
// a walk are read. A group whose walks are all dead writes nothing.
func (s *raggedStore) appendVertex(data []int32, v int, block []int32, lives []int) []int32 {
	hw := (s.group + 1) / 2
	for g := 0; g < s.groups; g++ {
		lo, hi := s.span(g)
		live := 0
		for _, l := range lives[lo:hi] {
			live += l
		}
		if live == 0 {
			s.seg[v*s.groups+g] = -1
			continue
		}
		at := len(data)
		s.seg[v*s.groups+g] = int64(at)
		data = slices.Grow(data, hw+live)[:at+hw]
		clear(data[at:])
		for fp := lo; fp < hi; fp++ {
			data = append(data, block[fp*s.k:fp*s.k+lives[fp]]...)
			putEnd(data[at:], fp-lo, len(data)-at-hw)
		}
	}
	return data
}

// putEnd sets end offset i of the group header at hdr[0], whose entry i is
// still 0.
func putEnd(hdr []int32, i, end int) {
	hdr[i/2] |= int32(uint32(end) << (16 * (i % 2)))
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

// shiftEnds sets end offsets i..j-1 of the header hdr, where they are
// still 0, to those of the header old plus shift. A word whose two
// offsets both move shifts with one add: each half stays in [0, 2¹⁶), so
// no carry or borrow crosses between them.
func shiftEnds(hdr, old []int32, i, j, shift int) {
	if i%2 == 1 && i < j {
		putEnd(hdr, i, groupEnd(old, 0, i)+shift)
		i++
	}
	both := uint32(shift) * (1<<16 + 1)
	for ; i+1 < j; i += 2 {
		hdr[i/2] = int32(uint32(old[i/2]) + both)
	}
	if i < j {
		putEnd(hdr, i, groupEnd(old, 0, i)+shift)
	}
}

// endAt is end offset i of the segment at data[at], 0 when the segment is
// absent (at < 0) or i is before the first walk.
func endAt(data []int32, at, i int) int {
	if at < 0 || i < 0 {
		return 0
	}
	return groupEnd(data, at, i)
}

// rewrite hands fix each walk padded to k entries, in a scratch the store
// keeps, and stores the results with setWalks.
func (s *raggedStore) rewrite(v int, fps []int, fix func(j int, path []int32)) {
	s.fixBuf = slices.Grow(s.fixBuf[:0], len(fps)*s.k)[:len(fps)*s.k]
	paths, row := s.fixBuf, s.row(v)
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
// paths, k entries per walk with -1 tails, one group at a time (setGroup),
// and compacts v's chunk once its dead words outnumber its live ones.
func (s *raggedStore) setWalks(v int, fps []int, paths []int32) {
	c := v >> s.shift
	for len(fps) > 0 {
		lo, hi := s.span(fps[0] / s.group)
		n := 1
		for n < len(fps) && fps[n] < hi {
			n++
		}
		s.setGroup(c, v*s.groups+fps[0]/s.group, lo, hi, fps[:n], paths[:n*s.k])
		fps, paths = fps[n:], paths[n*s.k:]
	}
	if 2*s.dead[c] > len(s.chunks[c]) {
		s.compact(c)
	}
}

// setGroup replaces the walks fps (ascending, in [lo, hi)) of group gi, in
// chunk c, with paths. When every one keeps its live length the walks are
// overwritten in place. Otherwise the group is spliced into a scratch the
// store keeps: each run of unchanged walks is copied whole from the old
// segment, and their end offsets shift by what the walks before them
// gained or lost. The new segment goes over the old one when it is no
// longer, leaving the difference dead, and to the tail of the chunk
// otherwise, leaving the old segment dead; a group left all dead has no
// segment.
func (s *raggedStore) setGroup(c, gi, lo, hi int, fps []int, paths []int32) {
	data, at, hw := s.chunks[c], int(s.seg[gi]), (s.group+1)/2
	body := at + hw
	inPlace := true
	for j, fp := range fps {
		l := len(livePrefix(paths[j*s.k : (j+1)*s.k]))
		inPlace = inPlace && l == endAt(data, at, fp-lo)-endAt(data, at, fp-lo-1)
	}
	if inPlace {
		for j, fp := range fps {
			if at >= 0 { // else every walk stays dead
				copy(data[body+endAt(data, at, fp-lo-1):body+endAt(data, at, fp-lo)], paths[j*s.k:])
			}
		}
		return
	}

	buf := slices.Grow(s.segBuf[:0], hw)[:hw]
	clear(buf)
	for i, old := 0, 0; i < hi-lo; {
		next := hi - lo // the next walk replaced, or the group's end
		if len(fps) > 0 {
			next = fps[0] - lo
		}
		if i < next && at < 0 { // walks i..next-1 are unchanged, and dead
			for u := i; u < next; u++ {
				putEnd(buf, u, len(buf)-hw)
			}
		} else if i < next { // walks i..next-1 are unchanged
			end := endAt(data, at, next-1)
			shiftEnds(buf, data[at:at+hw], i, next, len(buf)-hw-old)
			buf = append(buf, data[body+old:body+end]...)
			old = end
		}
		if next == hi-lo {
			break
		}
		buf = append(buf, livePrefix(paths[:s.k])...)
		putEnd(buf, next, len(buf)-hw)
		old = endAt(data, at, next)
		fps, paths, i = fps[1:], paths[s.k:], next+1
	}
	s.segBuf = buf

	was := 0
	if at >= 0 {
		was = s.segLen(data, at, hi-lo)
	}
	switch {
	case len(buf) == hw:
		s.seg[gi], s.dead[c] = -1, s.dead[c]+was
	case len(buf) <= was:
		copy(data[at:], buf)
		s.dead[c] += was - len(buf)
	default:
		s.seg[gi], s.dead[c] = int64(len(data)), s.dead[c]+was
		s.chunks[c] = append(data, buf...)
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
