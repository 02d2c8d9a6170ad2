package main

// gen.go turns a seed into the op sequences the workloads execute. Nothing
// here touches the system under test or the clock: the same arguments give
// byte-identical sequences, which is what lets two runs be compared op for
// op.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

type opKind uint8

const (
	opSingleSource opKind = iota // GET /v1/single_source?q=&min=0.01
	opTopK                       // GET /v1/topk?q=&k=10
	opTopKRerank                 // GET /v1/topk?q=&k=10&rerank=1
	opBatch                      // POST /v1/batch, topk over batchSize sources
	opEdges                      // POST /v1/edges
)

func (k opKind) String() string {
	return [...]string{"single_source", "topk", "topk_rerank", "batch", "edges"}[k]
}

// edit is one directed-edge change of an opEdges batch.
type edit struct {
	remove bool
	u, v   int32
}

// op is one request. q is the source of the three read kinds; sources and
// edits carry the payload of the two second-op kinds.
type op struct {
	kind    opKind
	q       int32
	sources []int32
	edits   []edit
}

// second reports whether the op is the workload's second op rather than a
// primary one.
func (o op) second() bool { return o.kind == opBatch || o.kind == opEdges }

const (
	zipfS      = 1.2
	batchEvery = 20 // every 20th op of a serving client is a batch
	batchSize  = 16
	readsRound = 4 // mapped-edits: reads before each edit batch
	editAdds   = 4
	editRemove = 4
)

// zipfCDF returns the cumulative Zipf(s) distribution over ranks 0..n-1.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for r := 0; r < n; r++ {
		sum += math.Pow(float64(r+1), -s)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	cdf[n-1] = 1
	return cdf
}

// zipfDeck draws count Zipf ranks by jittered stratified sampling — draw i
// is the inverse CDF at (i+U_i)/count — so the deck holds every popular
// rank within two draws of its expected count and the rare ranks once.
func zipfDeck(cdf []float64, count int, rng *rand.Rand) []int32 {
	deck := make([]int32, count)
	for i := range deck {
		u := (float64(i) + rng.Float64()) / float64(count)
		deck[i] = int32(sort.SearchFloat64s(cdf, u))
	}
	return deck
}

// kindDeck returns count primary read kinds in the serving mix: half
// thresholded single-source, four tenths top-k, one tenth reranked top-k.
func kindDeck(count int, rng *rand.Rand) []opKind {
	deck := make([]opKind, count)
	nSS, nTopK := count/2, count*4/10
	for i := range deck {
		switch {
		case i < nSS:
			deck[i] = opSingleSource
		case i < nSS+nTopK:
			deck[i] = opTopK
		default:
			deck[i] = opTopKRerank
		}
	}
	rng.Shuffle(count, func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	return deck
}

// serveTraffic is the request stream of serve-zipf and router-zipf: per
// client, the ops sent to the cold deployment during set-up, the rest of
// the warm-up, and the measured sequence.
type serveTraffic struct {
	cold, warm, measured [][]op
}

// genServeTraffic builds the per-client sequences over n vertices.
//
// What is asked is a property of the dataset and fixed by traceSeed: the
// popularity order of the vertices, and for each phase the multiset of
// (kind, source) reads and of batch sources, drawn as Zipf decks. The run
// seed decides the order: it shuffles the warm-up and the measured reads,
// regroups the batch sources, and so decides what each client sends when
// and what the response cache holds at that moment. Every run therefore
// does the same amount of work — independent Zipf draws would move the
// cache hit ratio by a point from seed to seed, throughput by four times
// that, and would put a different handful of expensive reranked hubs into
// every run — while no two seeds send the same sequence. The cold ops are
// the same in every run, so set-up always times the same work.
//
// Every batchEvery-th op of a client is a batch over batchSize sources.
func genServeTraffic(n, clients, coldOps, warmOps, measuredOps int, traceSeed, seed int64) serveTraffic {
	fixed := rand.New(rand.NewSource(traceSeed))
	order := rand.New(rand.NewSource(seed))
	perm := fixed.Perm(n)
	cdf := zipfCDF(n, zipfS)
	phase := func(perClient int, shuffle bool) [][]op {
		batches := clients * (perClient / batchEvery)
		reads := make([]op, clients*perClient-batches)
		kinds := kindDeck(len(reads), fixed)
		for i, rank := range zipfDeck(cdf, len(reads), fixed) {
			reads[i] = op{kind: kinds[i], q: int32(perm[rank])}
		}
		batchSources := zipfDeck(cdf, batches*batchSize, fixed)
		fixed.Shuffle(len(reads), func(i, j int) { reads[i], reads[j] = reads[j], reads[i] })
		fixed.Shuffle(len(batchSources), func(i, j int) { batchSources[i], batchSources[j] = batchSources[j], batchSources[i] })
		if shuffle {
			order.Shuffle(len(reads), func(i, j int) { reads[i], reads[j] = reads[j], reads[i] })
			order.Shuffle(len(batchSources), func(i, j int) { batchSources[i], batchSources[j] = batchSources[j], batchSources[i] })
		}
		out := make([][]op, clients)
		for c := range out {
			out[c] = make([]op, perClient)
		}
		// Dealt round-robin, so the global order of the deck survives.
		r, b := 0, 0
		for j := 0; j < perClient; j++ {
			for c := range out {
				if (j+1)%batchEvery == 0 {
					srcs := make([]int32, batchSize)
					for i := range srcs {
						srcs[i] = int32(perm[batchSources[b]])
						b++
					}
					out[c][j] = op{kind: opBatch, sources: srcs}
					continue
				}
				out[c][j] = reads[r]
				r++
			}
		}
		return out
	}
	return serveTraffic{cold: phase(coldOps, false), warm: phase(warmOps, true), measured: phase(measuredOps, true)}
}

// edgeModel is the benchmark's own copy of the evolving edge set of
// mapped-edits: it chooses edits that are effective when they are applied
// (every removed edge is present, every added edge absent) and yields the
// final edge list the index is checked against.
type edgeModel struct {
	n    int
	list [][2]int32
	pos  map[[2]int32]int
}

func newEdgeModel(n int, edges [][2]int32) *edgeModel {
	m := &edgeModel{n: n, list: append([][2]int32(nil), edges...), pos: make(map[[2]int32]int, len(edges))}
	for i, e := range m.list {
		m.pos[e] = i
	}
	return m
}

// batch draws adds new edges and removes existing ones, applies them to
// the model and returns them in request order (adds first). No pair occurs
// twice in one batch, so the order within the batch cannot matter.
func (m *edgeModel) batch(rng *rand.Rand, adds, removes int) []edit {
	out := make([]edit, 0, adds+removes)
	touched := make(map[[2]int32]bool, adds+removes)
	for len(out) < adds {
		e := [2]int32{int32(rng.Intn(m.n)), int32(rng.Intn(m.n))}
		if _, present := m.pos[e]; present || e[0] == e[1] || touched[e] {
			continue
		}
		touched[e] = true
		out = append(out, edit{u: e[0], v: e[1]})
	}
	for len(out) < adds+removes {
		e := m.list[rng.Intn(len(m.list))]
		if touched[e] {
			continue
		}
		touched[e] = true
		out = append(out, edit{remove: true, u: e[0], v: e[1]})
	}
	for _, e := range out {
		key := [2]int32{e.u, e.v}
		if e.remove {
			i, last := m.pos[key], len(m.list)-1
			m.list[i] = m.list[last]
			m.pos[m.list[i]] = i
			m.list = m.list[:last]
			delete(m.pos, key)
		} else {
			m.pos[key] = len(m.list)
			m.list = append(m.list, key)
		}
	}
	return out
}

// genMappedOps builds the single-client sequence of mapped-edits: rounds of
// readsRound uniform-source reads (half thresholded single-source, half
// top-k) followed by one edit batch drawn against model.
func genMappedOps(model *edgeModel, rounds int, rng *rand.Rand) []op {
	ops := make([]op, 0, rounds*(readsRound+1))
	for r := 0; r < rounds; r++ {
		for i := 0; i < readsRound; i++ {
			kind := opSingleSource
			if i >= readsRound/2 {
				kind = opTopK
			}
			ops = append(ops, op{kind: kind, q: int32(rng.Intn(model.n))})
		}
		ops = append(ops, op{kind: opEdges, edits: model.batch(rng, editAdds, editRemove)})
	}
	return ops
}

// pickSources returns count distinct vertices of [0,n) in seed order.
func pickSources(n, count int, seed int64) []int {
	if count > n {
		count = n
	}
	return rand.New(rand.NewSource(seed)).Perm(n)[:count]
}

// opDigest folds a sequence into a short string, for the run header and
// the determinism tests.
func opDigest(seqs ...[]op) string {
	h := uint64(14695981039346656037)
	mix := func(v uint64) { h = (h ^ v) * 1099511628211 }
	for _, seq := range seqs {
		mix(uint64(len(seq)))
		for _, o := range seq {
			mix(uint64(o.kind))
			mix(uint64(o.q))
			for _, s := range o.sources {
				mix(uint64(s))
			}
			for _, e := range o.edits {
				mix(uint64(e.u)<<32 | uint64(uint32(e.v)))
				if e.remove {
					mix(1)
				}
			}
		}
	}
	return fmt.Sprintf("%016x", h)
}
