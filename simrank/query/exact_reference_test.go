package query

import (
	"oipsr/graph"
)

// referenceScorer is the exact scorer as it stood before the memo became an
// open-addressed table and the frontier a count: the same recursion,
// visiting order and reuse rule, run through a Go map with a call per leaf
// pair. It is kept verbatim as the oracle — exactScorer must reproduce its
// scores bit for bit and its memo entry for entry, less the entries it
// never stores (exact_test.go).
type referenceScorer struct {
	g        *graph.Graph
	c        float64
	k        int // truncation depth (matches the index horizon)
	pruneEps float64
	memo     map[refKey]refVal
}

type refKey struct {
	a, b int // canonical a <= b (SimRank is symmetric)
	rem  int // remaining iterations
}

type refVal struct {
	score  float64
	weight float64 // branch weight the entry was computed at
}

func newReferenceScorer(g *graph.Graph, c float64, k int, pruneEps float64) *referenceScorer {
	return &referenceScorer{
		g:        g,
		c:        c,
		k:        k,
		pruneEps: pruneEps,
		memo:     make(map[refKey]refVal),
	}
}

// pair returns s_k(a, b), the value iteration k of the batch engines
// assigns, up to the pruning threshold.
func (e *referenceScorer) pair(a, b int) float64 {
	return e.score(a, b, e.k, 1)
}

func (e *referenceScorer) score(a, b, rem int, w float64) float64 {
	if a == b {
		return 1
	}
	if rem == 0 || w < e.pruneEps {
		return 0
	}
	if a > b {
		a, b = b, a
	}
	key := refKey{a: a, b: b, rem: rem}
	if ent, ok := e.memo[key]; ok && w <= ent.weight {
		return ent.score
	}
	ia, ib := e.g.In(a), e.g.In(b)
	var s float64
	if len(ia) > 0 && len(ib) > 0 {
		scale := e.c / float64(len(ia)*len(ib))
		cw := w * scale
		var sum float64
		for _, x := range ia {
			for _, y := range ib {
				sum += e.score(x, y, rem-1, cw)
			}
		}
		s = scale * sum
	}
	e.memo[key] = refVal{score: s, weight: w}
	return s
}
