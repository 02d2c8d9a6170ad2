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
//     starts in data, or -1 when every walk of the group is dead at step 1;
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
// Repair cannot lengthen a walk in place. rewrite hands each repaired walk
// out padded to k entries, then overwrites a group whose walks keep their
// live lengths, and otherwise writes the group afresh at the tail of data
// (the arena) and leaves the old segment dead. Once dead words outnumber
// live ones, compact rewrites data in (vertex, group) order, which is the
// layout a fresh build of the same walks has. Bytes counts the dead words
// until then.

// maxGroupEnd is the largest end offset a header entry holds.
const maxGroupEnd = 1<<16 - 1

// raggedStore holds an index's walks: Build, Load and every shard range
// keep them in one.
type raggedStore struct {
	r, k   int
	group  int     // walks per group
	groups int     // groups per vertex, ⌈r/group⌉
	seg    []int64 // (vertex, group) → segment offset in data, -1 if all dead
	data   []int32 // segments: header, then live positions
	dead   int     // words of data no seg points into
}

// newRaggedStore returns an empty store for r walks of horizon k per
// vertex.
func newRaggedStore(r, k int) *raggedStore {
	group := min(r, maxGroupEnd/k)
	return &raggedStore{r: r, k: k, group: group, groups: (r + group - 1) / group}
}

// walkRow is one vertex's R walks as every reader sees them: a dense block
// of r·k entries with -1 tails (a foreign vertex recomputed by walkFrom)
// when seg is nil, otherwise the vertex's group offsets into a ragged
// store's data.
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
	return walkRow{data: s.data, seg: s.seg[v*s.groups : (v+1)*s.groups], group: s.group}
}

// walks appends vertex v's r walks to dst in fingerprint order, each as
// row(v).walk(fp) returns it, reading every group header once.
func (s *raggedStore) walks(v int, dst [][]int32) [][]int32 {
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
			end := groupEnd(s.data, int(at), i)
			dst = append(dst, s.data[body+start:body+end:body+end])
			start = end
		}
	}
	return dst
}

// span returns the fingerprints [lo, hi) of group g.
func (s *raggedStore) span(g int) (lo, hi int) {
	return g * s.group, min((g+1)*s.group, s.r)
}

// appendGroup writes the walks lo..hi-1 that walkOf returns (live
// prefixes, or k entries with a -1 tail) as one segment at the tail of
// data and returns its offset, or -1 without writing when all are dead.
func (s *raggedStore) appendGroup(lo, hi int, walkOf func(fp int) []int32) int64 {
	live := 0
	for fp := lo; fp < hi; fp++ {
		live += len(livePrefix(walkOf(fp)))
	}
	if live == 0 {
		return -1
	}
	at, hw := len(s.data), (s.group+1)/2
	s.data = slices.Grow(s.data, hw+live)[:at+hw]
	clear(s.data[at:])
	end := 0
	for fp := lo; fp < hi; fp++ {
		w := livePrefix(walkOf(fp))
		s.data = append(s.data, w...)
		end += len(w)
		i := fp - lo
		s.data[at+i/2] |= int32(uint32(end) << (16 * (i % 2)))
	}
	return int64(at)
}

// appendVertex appends the next vertex's walks, given as an r·k block with
// -1 after each death (walkFrom's and the codec's form).
func (s *raggedStore) appendVertex(block []int32) {
	for g := 0; g < s.groups; g++ {
		lo, hi := s.span(g)
		s.seg = append(s.seg, s.appendGroup(lo, hi, func(fp int) []int32 { return block[fp*s.k : (fp+1)*s.k] }))
	}
}

// segLen is the length in words of the live segment at data[at] holding
// walks walks.
func (s *raggedStore) segLen(at, walks int) int {
	return (s.group+1)/2 + groupEnd(s.data, at, walks-1)
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
// group keeps its live lengths, at the tail of data otherwise.
func (s *raggedStore) setWalks(v int, fps []int, paths []int32) {
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
				return fresh[j*s.k : (j+1)*s.k]
			}
			return old.walk(fp)
		}
		inPlace := true
		for _, fp := range mine {
			inPlace = inPlace && len(livePrefix(walkOf(fp))) == len(old.walk(fp))
		}
		gi := v*s.groups + g
		switch at := int(s.seg[gi]); {
		case inPlace:
			for _, fp := range mine {
				copy(old.walk(fp), walkOf(fp))
			}
		case at >= 0:
			s.dead += s.segLen(at, hi-lo)
			fallthrough
		default:
			s.seg[gi] = s.appendGroup(lo, hi, walkOf)
		}
		fps, paths = fps[n:], paths[n*s.k:]
	}
	if 2*s.dead > len(s.data) {
		s.compact()
	}
}

// compact drops the dead segments: the live ones are copied in (vertex,
// group) order into an exactly sized array.
func (s *raggedStore) compact() {
	data := make([]int32, 0, len(s.data)-s.dead)
	for gi, at := range s.seg {
		if at < 0 {
			continue
		}
		lo, hi := s.span(gi % s.groups)
		s.seg[gi] = int64(len(data))
		data = append(data, s.data[at:int(at)+s.segLen(int(at), hi-lo)]...)
	}
	s.data, s.dead = data, 0
}

// joinStores concatenates stores over consecutive vertex ranges (none
// with dead words) into one with exactly sized arrays — Build's per-worker
// parts, or Load's one.
func joinStores(r, k int, parts []*raggedStore) *raggedStore {
	s := newRaggedStore(r, k)
	nseg, ndata := 0, 0
	for _, p := range parts {
		nseg += len(p.seg)
		ndata += len(p.data)
	}
	s.seg, s.data = make([]int64, 0, nseg), make([]int32, 0, ndata)
	for _, p := range parts {
		base := int64(len(s.data))
		for _, at := range p.seg {
			if at >= 0 {
				at += base
			}
			s.seg = append(s.seg, at)
		}
		s.data = append(s.data, p.data...)
	}
	return s
}

// Rows returns the number of stored start vertices.
func (s *raggedStore) Rows() int { return len(s.seg) / s.groups }

// Bytes is the layout: 8 bytes per (vertex, group) offset and 4 per word
// of data — headers, live positions, and the arena's dead words.
func (s *raggedStore) Bytes() int64 { return 8*int64(len(s.seg)) + 4*int64(len(s.data)) }
